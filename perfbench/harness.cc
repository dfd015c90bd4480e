/**
 * @file
 * In-process half of the Moonwalk benchmark (see README.md).
 *
 *   perfbench_harness fill <cache_dir> <digest_file>
 *       Sweep every app once at default options into a fresh disk
 *       cache and record, per app, the disk inserts and a digest of
 *       the results (the regen_disk_warm set-up).
 *   perfbench_harness disk-warm <cache_dir> <digest_file> <seed>
 *                     <seconds> [<trace_file>]
 *       The regen_disk_warm measured phase: a closed loop of fresh
 *       optimizers replaying sweeps from the disk cache, each op
 *       verified.  With <trace_file>, program tracing is on and the
 *       spans are written there at the end.
 *   perfbench_harness layers <seed> <scratch_dir>
 *       The traced per-layer pass: timed calls into each module's
 *       public functions plus serial, exactly repeatable work counts.
 *
 * Every mode prints one JSON object on stdout.  The global pool is
 * pinned to one worker (the program's --jobs 1), so an op keeps at
 * most two threads busy.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/optimizer.hh"
#include "core/report.hh"
#include "dse/explorer.hh"
#include "dse/pareto.hh"
#include "dse/result_codec.hh"
#include "exec/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"
#include "thermal/lane.hh"

namespace {

using namespace moonwalk;
namespace fs = std::filesystem;

/** The benchmark's input generator: every input derives from --seed. */
struct SplitMix64
{
    uint64_t state;

    uint64_t next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double uniform() { return (next() >> 11) * 0x1.0p-53; }
    int range(int lo, int hi) { return lo + int(next() % uint64_t(hi - lo + 1)); }
};

uint64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU of this process, all threads (ns). */
uint64_t
cpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ns = [](const timeval &tv) {
        return uint64_t(tv.tv_sec) * 1000000000ULL + tv.tv_usec * 1000ULL;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median wall time (us) of @p reps calls of @p fn. */
double
medianUs(int reps, const std::function<void()> &fn)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const uint64_t t0 = nowNs();
        fn();
        us.push_back((nowNs() - t0) / 1e3);
    }
    return median(us);
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Digest of what `moonwalk sweep <app>` prints, plus the bit
 *  patterns of each node's figures of merit. */
uint64_t
sweepDigest(const core::MoonwalkOptimizer &opt, const apps::AppSpec &app)
{
    std::ostringstream os;
    core::ReportGenerator(opt).writeText(os, app, 0.0);
    char line[256];
    for (const auto &r : opt.sweepNodes(app)) {
        std::snprintf(line, sizeof line, "%s %a %a %a %a %a\n",
                      tech::to_string(r.node).c_str(),
                      r.optimal.tco_per_ops, r.optimal.cost_per_ops,
                      r.optimal.watts_per_ops, r.optimal.config.vdd,
                      r.nre.total());
        os << line;
    }
    return fnv1a(os.str());
}

/** The four apps in a seeded rotation order. */
std::vector<apps::AppSpec>
seededRotation(uint64_t seed)
{
    auto all = apps::allApps();
    SplitMix64 rng{seed};
    for (size_t i = all.size() - 1; i > 0; --i)
        std::swap(all[i], all[rng.next() % (i + 1)]);
    return all;
}

dse::ExplorerOptions
diskOptions(const std::string &dir)
{
    dse::ExplorerOptions o;
    o.cache_dir = dir;
    return o;
}

/** Minimal JSON object writer for flat number/string fields. */
class JsonOut
{
  public:
    void num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        field(key, buf);
    }
    void str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v)
            q += (c == '"' || c == '\\') ? std::string("\\") + c
                                         : std::string(1, c);
        field(key, q + "\"");
    }
    void list(const std::string &key, const std::vector<uint64_t> &v)
    {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i)
            s += (i ? "," : "") + std::to_string(v[i]);
        field(key, s + "]");
    }
    std::string done() const { return "{" + body_ + "}"; }

  private:
    void field(const std::string &key, const std::string &raw)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + raw;
    }
    std::string body_;
};

struct Expected
{
    uint64_t disk_inserts = 0;
    uint64_t digest = 0;
};

std::map<std::string, Expected>
readDigests(const std::string &path)
{
    std::map<std::string, Expected> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto a = line.find('\t');
        const auto b = line.find('\t', a + 1);
        Expected e;
        e.disk_inserts = std::stoull(line.substr(a + 1, b - a - 1));
        e.digest = std::stoull(line.substr(b + 1), nullptr, 16);
        out[line.substr(0, a)] = e;
    }
    return out;
}

int
cmdFill(const std::string &dir, const std::string &digest_path)
{
    std::ofstream out(digest_path);
    for (const auto &app : apps::allApps()) {
        core::MoonwalkOptimizer opt{
            dse::DesignSpaceExplorer(diskOptions(dir))};
        opt.sweepNodes(app);
        out << app.name() << '\t' << opt.explorer().diskCacheInserts()
            << '\t' << std::hex << sweepDigest(opt, app) << std::dec
            << '\n';
    }
    out.close();
    if (!out) {
        std::cerr << "perfbench: cannot write " << digest_path << "\n";
        return 1;
    }
    std::cout << "{\"filled\":true}\n";
    return 0;
}

int
cmdDiskWarm(const std::string &dir, const std::string &digest_path,
            uint64_t seed, double seconds, const std::string &trace)
{
    const auto expected = readDigests(digest_path);
    const auto order = seededRotation(seed);
    if (!trace.empty())
        obs::traceCollector().start();

    std::vector<uint64_t> lat_ns;
    uint64_t cpu_total = 0, failed = 0;
    std::string first_failure;
    const uint64_t start = nowNs();
    // Whole rotations only, so every app is weighted equally.
    while ((nowNs() - start) / 1e9 < seconds || lat_ns.size() % order.size()) {
        const auto &app = order[lat_ns.size() % order.size()];
        const uint64_t c0 = cpuNs(), t0 = nowNs();
        core::MoonwalkOptimizer opt{
            dse::DesignSpaceExplorer(diskOptions(dir))};
        opt.sweepNodes(app);
        const uint64_t t1 = nowNs();
        cpu_total += cpuNs() - c0;
        lat_ns.push_back(t1 - t0);

        // A disk replay: every node a disk hit, nothing evaluated,
        // results equal to the set-up's.
        const auto it = expected.find(app.name());
        std::string why;
        if (it == expected.end())
            why = "no set-up digest";
        else if (opt.explorer().diskCacheHits() != it->second.disk_inserts)
            why = "disk hits " +
                std::to_string(opt.explorer().diskCacheHits()) +
                " != " + std::to_string(it->second.disk_inserts);
        else if (opt.explorer().evaluator().evaluateCalls() != 0)
            why = "evaluate() ran";
        else if (sweepDigest(opt, app) != it->second.digest)
            why = "results differ from set-up";
        if (!why.empty()) {
            ++failed;
            if (first_failure.empty())
                first_failure = "seed " + std::to_string(seed) +
                    " key " + app.name() + ": " + why;
        }
    }
    if (!trace.empty()) {
        obs::traceCollector().stop();
        obs::traceCollector().writeTo(trace);
    }
    JsonOut out;
    out.num("failed", double(failed));
    out.str("first_failure", first_failure);
    out.num("cpu_s", cpu_total / 1e9);
    out.list("lat_ns", lat_ns);
    std::cout << out.done() << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// The per-layer pass.

uint64_t
counter(const std::string &name)
{
    return obs::metrics().counter(name).value();
}

/** (app, node) pairs with a feasible design, in a seeded order. */
std::vector<std::pair<apps::AppSpec, tech::NodeId>>
seededPairs(const std::map<std::string, std::vector<tech::NodeId>> &feasible,
            uint64_t seed)
{
    std::vector<std::pair<apps::AppSpec, tech::NodeId>> pairs;
    for (const auto &app : apps::allApps())
        for (auto node : feasible.at(app.name()))
            pairs.emplace_back(app, node);
    SplitMix64 rng{seed ^ 0x5eedULL};
    for (size_t i = pairs.size() - 1; i > 0; --i)
        std::swap(pairs[i], pairs[rng.next() % (i + 1)]);
    return pairs;
}

int
cmdLayers(uint64_t seed, const std::string &scratch)
{
    JsonOut out;
    SplitMix64 rng{seed};
    obs::setMetricsEnabled(true);

    // -- Serial work counts: one explorer per app, every node, one
    //    thread, so every count repeats exactly.
    std::map<std::string, std::vector<tech::NodeId>> feasible;
    std::map<std::pair<std::string, int>, dse::ExplorationResult> results;
    double evaluates = 0, feasibles = 0, solves = 0, share = 0;
    for (const auto &app : apps::allApps()) {
        dse::ExplorerOptions o;
        o.max_threads = 1;
        dse::DesignSpaceExplorer ex(o);
        auto &hist = obs::metrics().histogram("thermal.solve.ns");
        const double solve_ns0 = hist.sum();
        const uint64_t t0 = nowNs();
        for (auto node : tech::kAllNodes) {
            auto r = ex.explore(app.rca, node);
            evaluates += r.evaluated;
            feasibles += r.feasible;
            if (r.tco_optimal)
                feasible[app.name()].push_back(node);
            results[{app.name(), tech::nodeIndex(node)}] = std::move(r);
        }
        share += (hist.sum() - solve_ns0) / double(nowNs() - t0);
        solves += ex.thermalCacheMisses();
    }
    const double n_apps = double(apps::allApps().size());
    out.num("dse.evaluates_per_op", evaluates / n_apps);
    out.num("dse.feasible_per_op", feasibles / n_apps);
    out.num("thermal.solves_per_op", solves / n_apps);
    out.num("thermal.solve_share", share / n_apps);

    const auto pairs = seededPairs(feasible, seed);

    // -- Thermal: one cold heatsink optimization per fresh model.
    {
        std::vector<double> us;
        for (int i = 0; i < 40; ++i) {
            const int dies = rng.range(1, 15);
            const double area = 20.0 * rng.range(1, 30);
            thermal::LaneThermalModel lane;
            const uint64_t t0 = nowNs();
            lane.solve(dies, area);
            us.push_back((nowNs() - t0) / 1e3);
        }
        out.num("thermal.solve_us_p50", median(us));
    }

    // -- evaluate() and the voltage bisection on the designs the
    //    sweeps chose (Pareto points of seeded pairs), thermal warm.
    {
        dse::ExplorerOptions o;
        o.max_threads = 1;
        dse::DesignSpaceExplorer ex(o);
        const auto &ev = ex.evaluator();
        struct Case
        {
            apps::AppSpec app;
            arch::ServerConfig cfg;
        };
        std::vector<Case> cases;
        while (cases.size() < 200) {
            const auto &[app, node] = pairs[rng.next() % pairs.size()];
            const auto &front =
                results.at({app.name(), tech::nodeIndex(node)}).pareto;
            cases.push_back({app, front[rng.next() % front.size()].config});
        }
        for (const auto &c : cases)
            ev.evaluate(c.app.rca, c.cfg);
        std::vector<double> eval_us, bisect_us;
        for (int rep = 0; rep < 3; ++rep) {
            for (const auto &c : cases) {
                const uint64_t t0 = nowNs();
                ev.evaluate(c.app.rca, c.cfg);
                eval_us.push_back((nowNs() - t0) / 1e3);
            }
        }
        for (size_t i = 0; i < 100; ++i) {
            const auto &c = cases[i];
            const uint64_t t0 = nowNs();
            ex.maxFeasibleVoltage(c.app.rca, c.cfg.node,
                                  c.cfg.rcas_per_die,
                                  c.cfg.dies_per_lane,
                                  c.cfg.drams_per_die,
                                  c.cfg.dark_silicon_fraction);
            bisect_us.push_back((nowNs() - t0) / 1e3);
        }
        out.num("dse.evaluate_us_p50", median(eval_us));
        out.num("dse.max_voltage_us_p50", median(bisect_us));
    }

    // -- Uncached explore, with the metrics registry off and on.
    {
        dse::ExplorerOptions o;
        o.max_threads = 1;
        o.cache_sweeps = false;
        std::vector<double> on_ms, off_ms;
        for (size_t i = 0; i < 4; ++i) {
            const auto &[app, node] = pairs[i];
            for (bool metrics : {false, true}) {
                obs::setMetricsEnabled(metrics);
                dse::DesignSpaceExplorer ex(o);
                const uint64_t t0 = nowNs();
                ex.explore(app.rca, node);
                (metrics ? on_ms : off_ms).push_back((nowNs() - t0) / 1e6);
            }
        }
        obs::setMetricsEnabled(true);
        out.num("dse.explore_ms_p50", median(off_ms));
        out.num("obs.metrics_overhead_ratio",
                median(on_ms) / median(off_ms));
    }

    // -- Pareto extraction over every feasible point of one sweep.
    {
        const auto &[app, node] = pairs[0];
        dse::ExplorerOptions o;
        o.max_threads = 1;
        o.cache_sweeps = false;
        o.keep_feasible_points = true;
        const auto r = dse::DesignSpaceExplorer(o).explore(app.rca, node);
        size_t front = 0;
        out.num("dse.pareto_us_p50", medianUs(20, [&] {
            front = dse::paretoFront(r.all_feasible).size();
        }));
        out.num("dse.pareto_in", double(r.all_feasible.size()));
        out.num("dse.pareto_out", double(front));
    }

    // -- Result codec on the same sweep's result.
    {
        const auto &[app, node] = pairs[0];
        const auto &r = results.at({app.name(), tech::nodeIndex(node)});
        std::string bytes;
        out.num("dse.codec_encode_us_p50", medianUs(50, [&] {
            bytes = dse::encodeExplorationResult(r);
        }));
        out.num("dse.codec_decode_us_p50", medianUs(50, [&] {
            dse::decodeExplorationResult(bytes);
        }));
        out.num("dse.codec_bytes", double(bytes.size()));
    }

    // -- Cold sweepNodes at --jobs 1, and the pool's work per sweep.
    {
        const auto app = seededRotation(seed)[0];
        const uint64_t tasks0 = counter("exec.tasks.executed");
        const uint64_t steals0 = counter("exec.tasks.stolen");
        const uint64_t wakes0 = counter("exec.worker.wakeups");
        const int reps = 3;
        out.num("core.sweep_nodes_ms_p50", medianUs(reps, [&] {
            core::MoonwalkOptimizer().sweepNodes(app);
        }) / 1e3);
        out.num("exec.tasks_per_op",
                double(counter("exec.tasks.executed") - tasks0) / reps);
        out.num("exec.steals_per_op",
                double(counter("exec.tasks.stolen") - steals0) / reps);
        out.num("exec.wakeups_per_op",
                double(counter("exec.worker.wakeups") - wakes0) / reps);
    }

    // -- Disk cache: one cold sweep writes, a fresh optimizer reads;
    //    then single explores served from disk.
    {
        const std::string dir = scratch + "/layers_cache";
        fs::remove_all(dir);
        const auto app = seededRotation(seed)[0];
        core::MoonwalkOptimizer cold{
            dse::DesignSpaceExplorer(diskOptions(dir))};
        cold.sweepNodes(app);
        core::MoonwalkOptimizer warm{
            dse::DesignSpaceExplorer(diskOptions(dir))};
        warm.sweepNodes(app);
        out.num("exec.diskcache_inserts_per_op",
                double(cold.explorer().diskCacheInserts()));
        out.num("exec.diskcache_hits_per_op",
                double(warm.explorer().diskCacheHits()));
        std::vector<double> us;
        for (int i = 0; i < 40; ++i) {
            const auto node = feasible.at(app.name())[
                i % feasible.at(app.name()).size()];
            dse::DesignSpaceExplorer ex(diskOptions(dir));
            dse::ExploreSource source = dse::ExploreSource::Computed;
            const uint64_t t0 = nowNs();
            ex.explore(app.rca, node, &source);
            us.push_back((nowNs() - t0) / 1e3);
            if (source != dse::ExploreSource::Disk) {
                std::cerr << "perfbench: seed " << seed << " key "
                          << app.name() << "@" << tech::to_string(node)
                          << ": explore not served from disk\n";
                return 1;
            }
        }
        out.num("exec.diskcache_load_us_p50", median(us));
        fs::remove_all(dir);
    }

    // -- The serve request path in-process: parse, memo-hit handle,
    //    envelope.  Lines are the serve_warm kind: default options.
    {
        serve::SweepService service(serve::ServiceOptions{});
        std::vector<std::string> lines;
        for (size_t i = 0; i < 4; ++i) {
            const auto &[app, node] = pairs[i];
            lines.push_back("{\"cmd\":\"explore\",\"app\":\"" + app.name() +
                            "\",\"node\":\"" + tech::to_string(node) +
                            "\"}");
        }
        std::vector<serve::Request> requests(lines.size());
        std::vector<double> parse_us, handle_us, env_us;
        double bytes = 0;
        for (int rep = 0; rep < 50; ++rep) {
            for (size_t i = 0; i < lines.size(); ++i) {
                serve::RequestError err;
                uint64_t t0 = nowNs();
                if (!serve::parseRequest(lines[i], &requests[i], &err)) {
                    std::cerr << "perfbench: seed " << seed << " key "
                              << lines[i] << ": " << err.message << "\n";
                    return 1;
                }
                parse_us.push_back((nowNs() - t0) / 1e3);
                if (rep == 0) {
                    service.handle(requests[i]);  // compute, untimed
                    continue;
                }
                t0 = nowNs();
                const auto payload = service.handle(requests[i]);
                handle_us.push_back((nowNs() - t0) / 1e3);
                t0 = nowNs();
                const auto env = serve::okEnvelope(*payload, &requests[i]);
                env_us.push_back((nowNs() - t0) / 1e3);
                if (rep == 1)
                    bytes += env.size() + 1;
            }
        }
        out.num("serve.parse_us_p50", median(parse_us));
        out.num("serve.handle_memo_us_p50", median(handle_us));
        out.num("serve.envelope_us_p50", median(env_us));
        out.num("serve.response_bytes", bytes / lines.size());
    }

    std::cout << out.done() << "\n";
    return 0;
}

int
usage()
{
    std::cerr << "usage: perfbench_harness fill <cache_dir> <digests>\n"
                 "       perfbench_harness disk-warm <cache_dir> <digests>"
                 " <seed> <seconds> [<trace_file>]\n"
                 "       perfbench_harness layers <seed> <scratch_dir>\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // The benchmark owns every cache directory it uses.
    unsetenv("MOONWALK_CACHE_DIR");
    unsetenv("MOONWALK_JOBS");
    exec::setGlobalConcurrency(1);
    const std::vector<std::string> a(argv + 1, argv + argc);
    try {
        if (a.size() == 3 && a[0] == "fill")
            return cmdFill(a[1], a[2]);
        if ((a.size() == 5 || a.size() == 6) && a[0] == "disk-warm")
            return cmdDiskWarm(a[1], a[2], std::stoull(a[3]),
                               std::stod(a[4]), a.size() == 6 ? a[5] : "");
        if (a.size() == 3 && a[0] == "layers")
            return cmdLayers(std::stoull(a[1]), a[2]);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return usage();
}
