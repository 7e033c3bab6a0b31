/**
 * @file
 * Invariant-audited fuzz driver over all three serving systems.
 *
 * Sweeps randomized (workload, config) cases through WindServe,
 * DistServe and vLLM with a fail-fast SimAuditor attached. On a
 * violation it prints the auditor's report plus the exact command line
 * that replays the failing case.
 *
 * A bad argument prints the usage and exits 2. The repro form
 * (--repro-seed=S --repro-config=NAME plus the case's axes) runs
 * exactly one case — the one a failure printed — optionally with
 * leveled event logging (--log=debug) for post-mortem inspection.
 * --chaos derives a fault schedule (instance crashes, link outages,
 * stragglers) from each case seed and replays it under full audit; a
 * chaos case's repro line carries the flag, so pasting it back
 * reproduces the faults too. --nodes=N replays every case on an
 * N-node cluster (sharded WindServe pods, replicated baselines) and,
 * under chaos, adds node-crash and NIC-outage classes.
 * --replicas=N runs WindServe cases under an N-replica control plane
 * (no RNG draw — a pure parameter); --ctrl-chaos adds leader crashes
 * and control partitions to each case's schedule, drawn strictly after
 * every other axis, and runs 3 replicas unless --replicas names more.
 */
#include <iostream>
#include <stdexcept>
#include <string>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

int
repro(std::uint64_t seed, harness::SystemKind kind,
      const harness::FuzzAxes &axes)
{
    std::cout << "replaying seed " << seed << " on "
              << harness::to_string(kind)
              << (axes.chaos ? " (chaos)" : "")
              << (axes.nodes > 1
                      ? " (" + std::to_string(axes.nodes) + " nodes)"
                      : "")
              << (axes.replicas_run() > 1
                      ? " (" + std::to_string(axes.replicas_run()) +
                            " replicas)"
                      : "")
              << (axes.ctrl_chaos ? " (ctrl-chaos)" : "") << "\n";
    harness::FuzzResult r = harness::run_fuzz_case(seed, kind, axes);
    std::cout << "ok: " << r.audit_events << " events audited, "
              << r.finished << "/" << r.num_requests << " finished";
    if (axes.chaos)
        std::cout << ", " << r.aborted << " aborted";
    std::cout << ", checksum " << std::hex << r.checksum << std::dec
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::FuzzOptions opt;
    opt.jobs = harness::default_jobs();
    std::string system = "all";
    std::uint64_t repro_seed = 0;
    std::string repro_config = "windserve";
    std::string log;

    harness::FlagTable t;
    t.add("--iters", opt.iterations, "cases per system (default 70)");
    t.add("--seed", opt.base_seed, "case i uses seed S + i (default 1)", "S");
    t.add("--jobs", opt.jobs, "worker threads (default: hardware threads)");
    t.add("--system", system, "one system, or all (default)", "NAME");
    t.add("--repro-seed", repro_seed, "replay the case a failure printed",
          "S");
    t.add("--repro-config", repro_config,
          "system of the replayed case (default windserve)", "NAME");
    harness::declare_fuzz_axes(t, opt);
    t.add("--log", log, "event log level: info, debug or trace", "LEVEL");
    t.parse_or_exit(argc, argv);

    harness::SystemKind repro_kind{};
    try {
        if (system != "all")
            opt.systems = {harness::parse_system_kind(system)};
        repro_kind = harness::parse_system_kind(repro_config);
    } catch (const std::invalid_argument &e) {
        t.fail(e.what());
    }
    if (!log.empty())
        sim::Log::set_level(log == "trace"   ? sim::LogLevel::Trace
                            : log == "debug" ? sim::LogLevel::Debug
                                             : sim::LogLevel::Info);
    try {
        if (t.seen("--repro-seed"))
            return repro(repro_seed, repro_kind, opt);

        std::cout << "fuzzing " << opt.iterations << " cases x "
                  << opt.systems.size() << " systems (base seed "
                  << opt.base_seed << ", " << opt.jobs << " jobs"
                  << (opt.chaos ? ", chaos" : "")
                  << (opt.nodes > 1
                          ? ", " + std::to_string(opt.nodes) + " nodes"
                          : "")
                  << (opt.replicas_run() > 1
                          ? ", " + std::to_string(opt.replicas_run()) +
                                " replicas"
                          : "")
                  << (opt.ctrl_chaos ? ", ctrl-chaos" : "")
                  << ")\n";
        harness::FuzzSummary sum = harness::run_fuzz(opt);
        std::cout << sum.results.size() << " cases, "
                  << sum.total_events << " events audited, "
                  << sum.total_violations << " violations\n";
        return sum.total_violations == 0 ? 0 : 1;
    } catch (const audit::InvariantViolation &e) {
        // what() ends with the replayable "--repro-seed=S
        // --repro-config=NAME" line; pass it back to this binary.
        std::cerr << "INVARIANT VIOLATION\n" << e.what() << "\n"
                  << "replay with: fuzz_runner <repro flags above>"
                  << " [--log=debug]\n";
        return 1;
    }
}
