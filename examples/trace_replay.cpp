/**
 * @file
 * Replay a workload trace from CSV and export full results.
 *
 * Pipeline: load (or synthesise) a trace -> run a serving system with
 * tracing and telemetry attached -> write per-request results and the
 * sampled metric series to CSV for offline analysis/plotting.
 *
 * Usage:
 *   trace_replay                         # synthesise a demo trace
 *   trace_replay my_trace.csv            # replay your own trace
 *   trace_replay my_trace.csv results.csv timeline.csv trace.json
 *
 * The third output is the metric series in long form
 * (time,family,labels,value); the fourth is a Chrome trace-event file
 * (request/GPU/transfer spans plus the metric series as counter
 * tracks) — open it in chrome://tracing or https://ui.perfetto.dev.
 *
 * Trace schema: arrival_time,prompt_tokens,output_tokens (header and
 * '#' comments allowed; arrivals non-decreasing).
 */
#include <algorithm>
#include <fstream>
#include <iostream>

#include "windserve/windserve.hpp"

int
main(int argc, char **argv)
{
    using namespace windserve;

    std::vector<workload::Request> trace;
    if (argc > 1) {
        try {
            trace = workload::load_trace_csv(argv[1]);
        } catch (const std::exception &e) {
            std::cerr << "trace_replay: " << e.what() << "\n";
            return 2;
        }
        std::cout << "loaded " << trace.size() << " requests from "
                  << argv[1] << "\n";
    } else {
        workload::TraceConfig tc;
        tc.dataset = workload::DatasetConfig::sharegpt();
        tc.arrival.rate = 10.0;
        tc.num_requests = 1000;
        trace = workload::TraceBuilder(tc).build();
        std::cout << "synthesised " << trace.size()
                  << " ShareGPT-like requests at 10 req/s "
                     "(pass a CSV path to replay your own trace)\n";
    }
    auto stats = workload::TraceBuilder::stats(trace);
    std::cout << "trace: prompt avg " << stats.prompt.mean()
              << " / output avg " << stats.output.mean()
              << " / realised rate " << stats.realised_rate
              << " req/s\n\n";

    core::WindServeConfig cfg;
    core::WindServeSystem sys(cfg);

    engine::RunOptions opts;
    opts.tracing = true;
    opts.telemetry = obs::TelemetryConfig{}; // sampled every sim second
    opts.slo = metrics::SloSpec::opt_13b_sharegpt();

    auto run = sys.run(trace, opts);
    const obs::MetricRegistry &reg = sys.telemetry()->registry();
    auto peak = [&](const char *family, const std::string &labels) {
        const std::vector<double> &v = reg.series(family, labels);
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    const std::string prefill =
        "instance=\"" + sys.prefill_instance().name() + "\"";
    const std::string decode =
        "instance=\"" + sys.decode_instance().name() + "\"";

    std::cout << metrics::detailed_report(run.metrics) << "\n\n";
    std::cout << "timeline peaks: prefill queue "
              << peak("ws_queue_tokens", prefill + ",queue=\"prefill\"")
              << " tokens, decode batch "
              << peak("ws_queue_requests",
                      decode + ",queue=\"decode_running\"")
              << " requests, decode KV occupancy "
              << metrics::fmt_percent(peak("ws_kv_block_util", decode))
              << "\n";

    const char *results_path =
        argc > 2 ? argv[2] : "/tmp/windserve_results.csv";
    const char *timeline_path =
        argc > 3 ? argv[3] : "/tmp/windserve_timeline.csv";
    const char *chrome_path =
        argc > 4 ? argv[4] : "/tmp/windserve_trace.json";
    workload::save_results_csv(results_path, run.requests);
    std::ofstream tl(timeline_path);
    tl << reg.csv();

    // run() already merged the sampled series into the span trace, so
    // the queue/occupancy curves overlay the GPU timeline in Perfetto.
    std::ofstream chrome(chrome_path);
    sys.trace()->write_chrome_json(chrome);
    std::cout << "wrote " << results_path << ", " << timeline_path
              << " and " << chrome_path << " ("
              << sys.trace()->num_events()
              << " trace events; open in chrome://tracing)\n";
    return 0;
}
