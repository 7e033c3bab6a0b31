/**
 * @file
 * One benchmark iteration: build one workload's trace and serving
 * system through the public harness API, run it once, and print one
 * JSON line of raw measurements on stdout.
 *
 *   perfbench_runner --workload NAME --seed N [--traced] [--shrink K]
 *
 * The untraced run is what the end-to-end metrics time. --traced
 * attaches the event-pump self-profiler (telemetry with sampling and
 * the decision journal off) and dumps its per-source buckets, so
 * run.py can split the same run() into layers. Both modes print the
 * deterministic outputs (checksum, event count, simulated metrics)
 * that run.py compares between them. --shrink K divides every request
 * count by K for the self-test.
 *
 * Each invocation is its own process so peak RSS (getrusage) belongs
 * to one workload only.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

using Clock = std::chrono::steady_clock;

/** Why each workload exists is documented in README.md. */
harness::ExperimentConfig
workload_config(const std::string &name, std::uint64_t seed,
                std::size_t shrink)
{
    harness::ExperimentConfig cfg;
    cfg.system = harness::SystemKind::WindServe;
    cfg.seed = seed;
    cfg.intra_threads = 1;
    if (name == "scale512") {
        cfg.scenario = harness::Scenario::opt13b_sharegpt();
        cfg.num_nodes = 64;
        cfg.pods_per_node = 2;
        cfg.per_gpu_rate = 1.2;
        cfg.num_requests = 400 * 128 / shrink;
        // bench_scale's watermarks, so cross-pod offload fires.
        cfg.offload_highwater = 0.10;
        cfg.offload_lowwater = 0.08;
    } else if (name == "pod_long") {
        cfg.scenario = harness::Scenario::opt13b_sharegpt();
        cfg.per_gpu_rate = 2.5;
        cfg.num_requests = 150000 / shrink;
        // The trace spans ~15,000 simulated seconds; leave room for
        // the tail to drain so every request finishes.
        cfg.horizon = 40000.0;
    } else if (name == "chaos_ctrl") {
        cfg.scenario = harness::Scenario::llama2_13b_longbench();
        cfg.num_nodes = 8;
        cfg.pods_per_node = 2;
        cfg.per_gpu_rate = 1.0;
        cfg.num_requests = 800 * 16 / shrink;
        cfg.ctrl_replicas = 3;
        fault::FaultConfig fc;
        fc.seed = seed ^ 0xfa17;
        // Bound the plan to the arrival window (~200 s at full size)
        // so faults hit live traffic instead of an idle cluster.
        fc.horizon = 220.0 / static_cast<double>(shrink);
        fc.warmup = 10.0 / static_cast<double>(shrink);
        fc.crash_mtbf = 60.0;
        fc.mean_repair = 8.0;
        fc.link_mtbf = 120.0;
        fc.leader_mtbf = 30.0;
        fc.partition_mtbf = 60.0;
        // Short control-plane outages: at the 5 s / 2 s defaults a
        // seed that loses quorum stalls admission for seconds and
        // doubles TTFT p99, so simulated tails would swing by seed.
        fc.mean_leader_repair = 1.0;
        fc.mean_partition = 1.0;
        cfg.faults = fc;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return cfg;
}

long
peak_rss_kb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seed_given = false;
    bool traced = false;
    std::size_t shrink = 1;
    harness::ExperimentConfig cfg;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--workload" && i + 1 < argc) {
                workload = argv[++i];
            } else if (arg == "--seed" && i + 1 < argc) {
                seed = std::stoull(argv[++i]);
                seed_given = true;
            } else if (arg == "--shrink" && i + 1 < argc) {
                shrink = std::stoul(argv[++i]);
            } else if (arg == "--traced") {
                traced = true;
            } else {
                throw std::invalid_argument("unknown argument: " + arg);
            }
        }
        if (workload.empty() || !seed_given || shrink == 0)
            throw std::invalid_argument(
                "--workload and --seed are required, --shrink >= 1");
        cfg = workload_config(workload, seed, shrink);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_runner: " << e.what()
                  << "\nusage: perfbench_runner --workload NAME --seed N"
                     " [--traced] [--shrink K]\n";
        return 2;
    }

    // Spans around the runner's own calls into each layer.
    auto t0 = Clock::now();
    auto trace = harness::make_trace(cfg);
    auto t1 = Clock::now();
    auto system = harness::make_system(cfg);
    auto t2 = Clock::now();
    const long setup_rss_kb = peak_rss_kb();

    engine::RunOptions opts;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    opts.faults = cfg.faults;
    opts.intra_threads = cfg.intra_threads;
    if (traced) {
        obs::TelemetryConfig tc;
        tc.sample_every = 0.0;
        tc.self_profile = true;
        tc.journal = false;
        opts.telemetry = tc;
    }
    auto t3 = Clock::now();
    auto run = system->run(trace, opts);
    auto t4 = Clock::now();
    const long run_peak_kb = peak_rss_kb();

    const metrics::RunMetrics &m = run.metrics;
    std::uint64_t dispatches = 0, reschedules = 0, migrations = 0,
                  backups = 0, swap_outs = 0, cross_offloads = 0,
                  cross_redispatches = 0, lp_windows = 0, lp_hub_phases = 0,
                  lp_messages = 0;
    if (auto *cs = dynamic_cast<core::ClusterServeSystem *>(system.get())) {
        dispatches = cs->total_dispatches();
        reschedules = cs->total_reschedules();
        migrations = cs->total_migrations();
        backups = cs->total_backups();
        for (std::size_t k = 0; k < cs->num_pods(); ++k)
            swap_outs += cs->pod(k).decode_instance().swap_out_events();
        cross_offloads = cs->cross_offloads();
        cross_redispatches = cs->cross_redispatches();
        if (const sim::LpScheduler *lp = cs->lp()) {
            lp_windows = lp->windows();
            lp_hub_phases = lp->hub_phases();
            lp_messages = lp->messages_posted();
        }
    } else if (auto *ws =
                   dynamic_cast<core::WindServeSystem *>(system.get())) {
        dispatches = ws->scheduler().coordinator().dispatches();
        reschedules = ws->scheduler().coordinator().reschedules();
        migrations = ws->migration().completed();
        backups = ws->backup().backups_taken();
        swap_outs = ws->decode_instance().swap_out_events();
    }

    std::ostringstream o;
    o.precision(17);
    o << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"traced\":" << (traced ? "true" : "false") << ",\"build\":\""
#if defined(NDEBUG) && defined(__OPTIMIZE__)
      << "optimized"
#else
      << "unoptimized"
#endif
      << "\",\"hw_threads\":"
      << std::max(1u, std::thread::hardware_concurrency())
      << ",\"requests\":" << trace.size()
      << ",\"events\":" << system->total_events_fired()
      << ",\"hub_events\":" << system->simulator().events_fired()
      << ",\"checksum\":" << harness::result_checksum(run.requests)
      << ",\"make_trace_s\":" << seconds(t0, t1)
      << ",\"make_system_s\":" << seconds(t1, t2)
      << ",\"run_s\":" << seconds(t3, t4)
      << ",\"setup_rss_kb\":" << setup_rss_kb
      << ",\"peak_rss_kb\":" << run_peak_kb
      << ",\"finished\":" << m.num_finished
      << ",\"unfinished\":" << m.num_unfinished
      << ",\"aborted\":" << m.num_aborted
      << ",\"ttft_n\":" << m.ttft.count()
      << ",\"ttft_p50\":" << m.ttft.percentile(50.0)
      << ",\"ttft_p99\":" << m.ttft.percentile(99.0)
      << ",\"tpot_n\":" << m.tpot.count()
      << ",\"tpot_p50\":" << m.tpot.percentile(50.0)
      << ",\"tpot_p99\":" << m.tpot.percentile(99.0)
      << ",\"slo_attainment\":" << m.slo_attainment
      << ",\"goodput_tok_s\":" << m.goodput_tokens_per_s
      << ",\"makespan\":" << m.makespan
      << ",\"dispatches\":" << dispatches
      << ",\"reschedules\":" << reschedules
      << ",\"cross_offloads\":" << cross_offloads
      << ",\"cross_redispatches\":" << cross_redispatches
      << ",\"migrations\":" << migrations << ",\"backups\":" << backups
      << ",\"swap_outs\":" << swap_outs << ",\"lp_windows\":" << lp_windows
      << ",\"lp_hub_phases\":" << lp_hub_phases
      << ",\"lp_messages\":" << lp_messages
      << ",\"crashes\":" << m.instance_crashes
      << ",\"redispatches\":" << m.fault_redispatches
      << ",\"recoveries\":" << m.fault_recoveries
      << ",\"recovery_mean_s\":"
      << (m.recovery_latency.empty() ? 0.0 : m.recovery_latency.mean())
      << ",\"elections\":" << m.ctrl_elections
      << ",\"commits\":" << m.ctrl_commits
      << ",\"failovers\":" << m.failovers << ",\"failover_p99_s\":"
      << m.failover_latency.percentile(99.0);

    o << ",\"sources\":[";
    if (const obs::Telemetry *tel = system->telemetry()) {
        const sim::PumpProfiler &prof = tel->profiler();
        for (std::size_t i = 0; i < prof.num_sources(); ++i) {
            const auto id = static_cast<std::uint16_t>(i);
            const sim::PumpProfiler::Bucket b = prof.bucket(id);
            o << (i ? "," : "") << "[\"" << json_escape(prof.name(id))
              << "\"," << b.fired << "," << b.wall_ns << "]";
        }
    }
    o << "]}";
    std::cout << o.str() << std::endl;
    return 0;
}
