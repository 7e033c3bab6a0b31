/**
 * @file
 * Tests for the telemetry layer (src/obs/ + simcore profiler hooks):
 * histogram bucket-edge semantics, registry sampling, Prometheus/CSV
 * exporter round-trips, the decision journal across all three decision
 * kinds, self-profiler attribution, and the two determinism contracts —
 * telemetry off changes nothing, and every export is byte-identical at
 * any `--jobs N`.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "windserve/windserve.hpp"

using namespace windserve;
namespace hs = harness;
namespace flt = fault;

namespace {

// A small-but-busy WindServe cell with telemetry attached.
hs::ExperimentConfig
telem_cell(hs::SystemKind kind = hs::SystemKind::WindServe)
{
    hs::ExperimentConfig cfg;
    cfg.scenario = hs::Scenario::opt13b_sharegpt();
    cfg.system = kind;
    cfg.per_gpu_rate = 5.0; // loaded enough to swap / dispatch
    cfg.num_requests = 80;
    cfg.telemetry = obs::TelemetryConfig{};
    return cfg;
}

// Run a system directly (not via run_experiment) so the test can poke
// at the live Telemetry object afterwards.
std::unique_ptr<engine::ServingSystem>
instrumented_system(const hs::ExperimentConfig &cfg)
{
    auto sys = hs::make_system(cfg);
    engine::RunOptions opts;
    opts.slo = cfg.scenario.slo;
    opts.horizon = cfg.horizon;
    opts.telemetry = cfg.telemetry;
    opts.faults = cfg.faults;
    sys->run(hs::make_trace(cfg), opts);
    return sys;
}

std::vector<std::string>
split_lines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

// Split one CSV row on commas per RFC 4180: quoted fields may contain
// commas, doubled quotes decode to one quote (the metrics CSV quotes
// its labels field, the journal its scores column).
std::vector<std::string>
split_csv_row(const std::string &row)
{
    std::vector<std::string> fields;
    std::string cur;
    bool quoted = false;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const char c = row[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < row.size() && row[i + 1] == '"') {
                    cur += '"';
                    ++i;
                } else
                    quoted = false;
            } else
                cur += c;
        } else if (c == '"')
            quoted = true;
        else if (c == ',') {
            fields.push_back(cur);
            cur.clear();
        } else
            cur += c;
    }
    fields.push_back(cur);
    return fields;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram bucket semantics
// ---------------------------------------------------------------------

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds)
{
    // Bounds: 1, 2, 4, 8 (+inf overflow).
    obs::Histogram h({1.0, 2.0, 4});
    ASSERT_EQ(h.bounds(), (std::vector<double>{1.0, 2.0, 4.0, 8.0}));

    // Prometheus `le` semantics: a value equal to a bound lands IN that
    // bound's bucket, the next representable value above it does not.
    EXPECT_EQ(h.bucket_index(1.0), 0u);
    EXPECT_EQ(h.bucket_index(std::nextafter(1.0, 2.0)), 1u);
    EXPECT_EQ(h.bucket_index(2.0), 1u);
    EXPECT_EQ(h.bucket_index(4.0), 2u);
    EXPECT_EQ(h.bucket_index(8.0), 3u);
    EXPECT_EQ(h.bucket_index(std::nextafter(8.0, 9.0)), 4u); // +inf
    EXPECT_EQ(h.bucket_index(1e30), 4u);

    // Below-range values clamp into the first bucket.
    EXPECT_EQ(h.bucket_index(0.0), 0u);
    EXPECT_EQ(h.bucket_index(-3.0), 0u);

    for (double v : {1.0, 2.0, 2.0, 8.0, 9.0, -1.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 21.0);
    EXPECT_EQ(h.bucket_counts(),
              (std::vector<std::uint64_t>{2, 2, 0, 1, 1}));
}

// ---------------------------------------------------------------------
// Registry sampling
// ---------------------------------------------------------------------

TEST(MetricRegistry, SamplesPullInstrumentsIntoSeries)
{
    obs::MetricRegistry reg;
    double depth = 0.0;
    std::uint64_t total = 0;
    reg.gauge("ws_queue_requests", "queue=\"prefill\"",
              [&] { return depth; }, "waiting requests");
    reg.counter("ws_decode_iterations_total", "",
                [&] { return static_cast<double>(total); });

    depth = 3;
    total = 10;
    reg.sample(0.0);
    depth = 1;
    total = 25;
    reg.sample(1.0);

    EXPECT_EQ(reg.num_samples(), 2u);
    EXPECT_EQ(reg.num_instruments(), 2u);
    EXPECT_EQ(reg.num_families(), 2u);
    EXPECT_EQ(reg.series("ws_queue_requests", "queue=\"prefill\""),
              (std::vector<double>{3.0, 1.0}));
    EXPECT_EQ(reg.series("ws_decode_iterations_total", ""),
              (std::vector<double>{10.0, 25.0}));
    EXPECT_EQ(reg.last_value("ws_queue_requests", "queue=\"prefill\""),
              1.0);
    EXPECT_THROW(reg.series("ws_queue_requests", "queue=\"decode\""),
                 std::out_of_range);
}

// ---------------------------------------------------------------------
// Exporter round-trips
// ---------------------------------------------------------------------

TEST(MetricRegistry, PrometheusTextIsWellFormedOnRealRun)
{
    auto cfg = telem_cell();
    auto sys = instrumented_system(cfg);
    const obs::Telemetry *tel = sys->telemetry();
    ASSERT_NE(tel, nullptr);
    const std::string text = tel->registry().prometheus_text();

    std::map<std::string, std::string> family_type;
    std::map<std::string, bool> family_help;
    // Keyed by "family{labels-without-le}": the +Inf cumulative bucket
    // of each histogram series must equal that series' _count.
    std::map<std::string, double> inf_of, count_of;
    for (const std::string &line : split_lines(text)) {
        if (line.empty())
            continue;
        std::istringstream in(line);
        if (line.rfind("# HELP ", 0) == 0) {
            std::string hash, kw, fam;
            in >> hash >> kw >> fam;
            family_help[fam] = true;
            continue;
        }
        if (line.rfind("# TYPE ", 0) == 0) {
            std::string hash, kw, fam, kind;
            in >> hash >> kw >> fam >> kind;
            EXPECT_TRUE(kind == "gauge" || kind == "counter" ||
                        kind == "histogram")
                << line;
            family_type[fam] = kind;
            continue;
        }
        ASSERT_NE(line[0], '#') << line;
        // `name{labels} value` or `name value`; the value must parse.
        const std::size_t sp = line.rfind(' ');
        ASSERT_NE(sp, std::string::npos) << line;
        const std::string value_str = line.substr(sp + 1);
        char *end = nullptr;
        const double v = std::strtod(value_str.c_str(), &end);
        EXPECT_EQ(*end, '\0') << line;
        EXPECT_FALSE(v != v) << line; // no NaN samples

        const std::string name = line.substr(0, line.find_first_of("{ "));
        const std::size_t lb = line.find('{');
        std::string labels;
        if (lb != std::string::npos && lb < sp)
            labels = line.substr(lb + 1, line.rfind('}') - lb - 1);

        // Histogram series carry the family's _bucket/_count suffix.
        auto strip = [&](const char *suffix) {
            const std::string s = suffix;
            if (name.size() > s.size() &&
                name.compare(name.size() - s.size(), s.size(), s) == 0) {
                const std::string fam =
                    name.substr(0, name.size() - s.size());
                if (family_type.count(fam))
                    return fam;
            }
            return std::string();
        };
        if (auto fam = strip("_bucket"); !fam.empty()) {
            const std::size_t le = labels.find("le=\"");
            ASSERT_NE(le, std::string::npos) << line;
            if (labels.find("le=\"+Inf\"") != std::string::npos) {
                std::string key = labels.substr(0, le);
                if (!key.empty() && key.back() == ',')
                    key.pop_back();
                inf_of[fam + "{" + key + "}"] = v;
            }
        } else if (auto fam2 = strip("_count"); !fam2.empty()) {
            count_of[fam2 + "{" + labels + "}"] = v;
        }
    }

    // Every family has HELP and TYPE; the run exposes a rich surface.
    for (const auto &[fam, kind] : family_type)
        EXPECT_TRUE(family_help[fam]) << fam;
    EXPECT_GE(family_type.size(), 6u);
    ASSERT_TRUE(family_type.count("ws_decode_batch_size"));
    EXPECT_EQ(family_type["ws_decode_batch_size"], "histogram");
    // The +Inf bucket is cumulative over everything == total count.
    ASSERT_FALSE(inf_of.empty());
    EXPECT_EQ(inf_of, count_of);
}

TEST(MetricRegistry, CsvRoundTripsSampledSeriesExactly)
{
    auto cfg = telem_cell();
    auto sys = instrumented_system(cfg);
    const obs::Telemetry *tel = sys->telemetry();
    ASSERT_NE(tel, nullptr);
    const obs::MetricRegistry &reg = tel->registry();

    auto lines = split_lines(reg.csv());
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0], "time,family,labels,value");

    // Re-assemble one series from the flat rows and compare against the
    // in-memory series bit-for-bit: the CSV's number formatting must
    // round-trip through strtod exactly.
    const std::string labels = "instance=\"decode\",resource=\"compute\"";
    std::vector<double> times, values;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        auto f = split_csv_row(lines[i]);
        ASSERT_EQ(f.size(), 4u) << lines[i];
        if (f[1] == "ws_gpu_busy" && f[2] == labels) {
            times.push_back(std::strtod(f[0].c_str(), nullptr));
            values.push_back(std::strtod(f[3].c_str(), nullptr));
        }
    }
    ASSERT_FALSE(values.empty());
    EXPECT_EQ(times, reg.sample_times());
    EXPECT_EQ(values, reg.series("ws_gpu_busy", labels));

    // Sample ticks are strictly increasing.
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_LT(times[i - 1], times[i]);
}

// ---------------------------------------------------------------------
// Determinism contracts
// ---------------------------------------------------------------------

TEST(Telemetry, OffRunIsByteIdenticalToInstrumentedRun)
{
    auto off = telem_cell();
    off.telemetry.reset();
    auto on = telem_cell();
    on.telemetry->sample_every = 0.25; // denser sampling, same results

    auto a = hs::run_experiment(off);
    auto b = hs::run_experiment(on);

    // Request outcomes and scheduler counters are a pure function of
    // the simulation; the telemetry attachments must not perturb it.
    EXPECT_EQ(a.metrics.num_finished, b.metrics.num_finished);
    EXPECT_EQ(a.metrics.ttft.median(), b.metrics.ttft.median());
    EXPECT_EQ(a.metrics.ttft.p99(), b.metrics.ttft.p99());
    EXPECT_EQ(a.metrics.tpot.p99(), b.metrics.tpot.p99());
    EXPECT_EQ(a.metrics.slo_attainment, b.metrics.slo_attainment);
    EXPECT_EQ(a.dispatches, b.dispatches);
    EXPECT_EQ(a.reschedules, b.reschedules);
    EXPECT_EQ(a.migrations_completed, b.migrations_completed);
    EXPECT_EQ(a.backups, b.backups);
    EXPECT_EQ(a.decode_swap_outs, b.decode_swap_outs);

    // And the off run carries no exports.
    EXPECT_TRUE(a.metrics_prometheus.empty());
    EXPECT_EQ(a.metric_samples, 0u);
    EXPECT_FALSE(b.metrics_prometheus.empty());
    EXPECT_GT(b.metric_samples, 0u);
}

TEST(Telemetry, ExportsByteIdenticalAcrossJobCounts)
{
    std::vector<hs::ExperimentConfig> cells{
        telem_cell(hs::SystemKind::WindServe),
        telem_cell(hs::SystemKind::DistServe),
        telem_cell(hs::SystemKind::Vllm),
        telem_cell(hs::SystemKind::WindServe)};
    cells[3].per_gpu_rate = 3.0;
    for (auto &c : cells)
        c.num_requests = 60;

    auto seq = hs::run_experiments(cells, 1);
    auto par = hs::run_experiments(cells, 4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].metrics_prometheus, par[i].metrics_prometheus)
            << "cell " << i;
        EXPECT_EQ(seq[i].metrics_csv, par[i].metrics_csv) << "cell " << i;
        EXPECT_EQ(seq[i].journal_csv, par[i].journal_csv) << "cell " << i;
        EXPECT_EQ(seq[i].journal_json, par[i].journal_json)
            << "cell " << i;
        EXPECT_EQ(seq[i].profile_table, par[i].profile_table)
            << "cell " << i;
        EXPECT_GT(seq[i].metric_samples, 0u) << "cell " << i;
    }
}

// ---------------------------------------------------------------------
// Sampling cadence
// ---------------------------------------------------------------------

TEST(Telemetry, DisabledSamplingStillTakesOneClosingSample)
{
    auto cfg = telem_cell();
    cfg.telemetry->sample_every = 0.0;
    auto r = hs::run_experiment(cfg);
    EXPECT_EQ(r.metric_samples, 1u);
    EXPECT_FALSE(r.metrics_csv.empty());
}

TEST(Telemetry, SampleGridFollowsConfiguredInterval)
{
    auto cfg = telem_cell();
    cfg.telemetry->sample_every = 0.5;
    auto sys = instrumented_system(cfg);
    const auto &times = sys->telemetry()->registry().sample_times();
    ASSERT_GT(times.size(), 4u);
    // All but the closing sample sit on the 0.5 s grid.
    for (std::size_t i = 0; i + 1 < times.size(); ++i)
        EXPECT_EQ(times[i], 0.5 * static_cast<double>(i)) << i;
    EXPECT_GE(times.back(), times[times.size() - 2]);
}

// ---------------------------------------------------------------------
// Decision journal
// ---------------------------------------------------------------------

TEST(DecisionJournal, DispatchDecisionsCarryCandidatesAndScores)
{
    auto cfg = telem_cell();
    auto sys = instrumented_system(cfg);
    const obs::DecisionJournal &j = sys->telemetry()->journal_data();

    ASSERT_GT(j.count(obs::ProbeKind::Dispatch), 0u);
    // Every request got exactly one dispatch decision.
    EXPECT_EQ(j.count(obs::ProbeKind::Dispatch), cfg.num_requests);
    for (const obs::Decision &d : j.entries()) {
        if (d.kind != obs::ProbeKind::Dispatch)
            continue;
        ASSERT_EQ(d.candidates.size(), 2u);
        EXPECT_EQ(d.candidates[0].target, "prefill");
        EXPECT_EQ(d.candidates[1].target, "decode");
        EXPECT_FALSE(d.chosen.empty());
        EXPECT_FALSE(d.reason.empty());
        EXPECT_FALSE(d.candidates[0].scores.empty());
    }

    // The per-request query returns that request's history in order.
    const auto first = j.entries().front();
    auto hist = j.for_request(first.request);
    ASSERT_FALSE(hist.empty());
    EXPECT_EQ(hist.front()->kind, obs::ProbeKind::Dispatch);

    // CSV export: header plus one row per (decision, candidate).
    auto lines = split_lines(j.csv());
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0],
              "time,kind,request,chosen,reason,candidate,feasible,scores");
    std::size_t expect_rows = 0;
    for (const auto &d : j.entries())
        expect_rows += d.candidates.size();
    EXPECT_EQ(lines.size(), 1 + expect_rows);

    // JSON export is non-empty and shaped as one decisions array.
    const std::string json = j.json();
    EXPECT_EQ(json.rfind("{\"decisions\": [", 0), 0u);
    EXPECT_NE(json.find("\"kind\": \"dispatch\""), std::string::npos);
}

TEST(DecisionJournal, ReschedulingUnderMemoryPressureIsJournaled)
{
    hs::ExperimentConfig cfg;
    cfg.scenario = hs::Scenario::opt13b_sharegpt_small_decode();
    cfg.system = hs::SystemKind::WindServe;
    cfg.per_gpu_rate = 1.5;
    cfg.num_requests = 300;
    cfg.telemetry = obs::TelemetryConfig{};

    auto sys = instrumented_system(cfg);
    const obs::DecisionJournal &j = sys->telemetry()->journal_data();
    ASSERT_GT(j.count(obs::ProbeKind::Reschedule), 0u);

    bool saw_migration = false;
    for (const obs::Decision &d : j.entries()) {
        if (d.kind != obs::ProbeKind::Reschedule)
            continue;
        ASSERT_EQ(d.candidates.size(), 1u);
        EXPECT_EQ(d.candidates[0].target, "migrate-to-prefill");
        if (d.chosen == "migrate-to-prefill") {
            saw_migration = true;
            EXPECT_EQ(d.reason, "occupancy_over_trigger");
        }
    }
    EXPECT_TRUE(saw_migration);
}

TEST(DecisionJournal, FaultRedispatchIsJournaledWithFaultCounters)
{
    // The chaos dials from test_fault's crash/recovery smoke: tight
    // MTBFs so crashes land while requests are in flight.
    flt::FaultConfig fc;
    fc.horizon = 90.0;
    fc.warmup = 5.0;
    fc.seed = 99;
    fc.crash_mtbf = 10.0;
    fc.mean_repair = 5.0;
    fc.link_mtbf = 25.0;
    fc.mean_outage = 2.0;
    fc.degrade_factor = 0.0; // hard stall
    fc.straggler_mtbf = 30.0;
    fc.mean_straggler = 8.0;
    fc.straggler_slowdown = 2.5;

    hs::ExperimentConfig cfg;
    cfg.scenario = hs::Scenario::opt13b_sharegpt();
    cfg.system = hs::SystemKind::WindServe;
    cfg.per_gpu_rate = 1.5;
    cfg.num_requests = 150;
    cfg.seed = 4242;
    cfg.horizon = 1200.0;
    cfg.kv_capacity_tokens_override = 6144; // pressure: backups active
    cfg.faults = fc;
    cfg.telemetry = obs::TelemetryConfig{};

    auto sys = instrumented_system(cfg);
    const obs::Telemetry *tel = sys->telemetry();
    const obs::DecisionJournal &j = tel->journal_data();
    ASSERT_GT(j.count(obs::ProbeKind::Redispatch), 0u);
    for (const obs::Decision &d : j.entries()) {
        if (d.kind != obs::ProbeKind::Redispatch)
            continue;
        ASSERT_EQ(d.candidates.size(), 2u);
        EXPECT_EQ(d.candidates[0].target, "resume-backup");
        EXPECT_EQ(d.candidates[1].target, "recompute");
        EXPECT_TRUE(d.reason == "backup_covers_prompt" ||
                    d.reason == "no_usable_backup")
            << d.reason;
    }

    // Fault-kind counters are live in the registry under one family.
    const obs::MetricRegistry &reg = tel->registry();
    EXPECT_GT(reg.last_value("ws_fault_events_total",
                             "kind=\"instance_crash\""),
              0.0);
    EXPECT_GT(
        reg.last_value("ws_fault_events_total", "kind=\"redispatch\""),
        0.0);
    // And the fault event source is attributed by the profiler.
    EXPECT_NE(tel->profile_table().find("fault"), std::string::npos);
}

TEST(DecisionJournal, DisabledJournalRecordsNothing)
{
    auto cfg = telem_cell();
    cfg.telemetry->journal = false;
    auto r = hs::run_experiment(cfg);
    EXPECT_EQ(r.journal_decisions, 0u);
    EXPECT_GT(r.metric_samples, 0u); // metrics still sampled
}

// ---------------------------------------------------------------------
// Self-profiler
// ---------------------------------------------------------------------

TEST(PumpProfiler, AttributesNearlyEveryFiredEvent)
{
    auto cfg = telem_cell();
    auto sys = instrumented_system(cfg);
    const obs::Telemetry *tel = sys->telemetry();

    EXPECT_GE(tel->attributed_fraction(), 0.95);
    const std::string table = tel->profile_table();
    for (const char *src : {"prefill/pump", "decode/pump", "arrival"})
        EXPECT_NE(table.find(src), std::string::npos) << src;
    // Counts-only table stays away from wall-clock columns.
    EXPECT_EQ(table.find("wall"), std::string::npos);
    EXPECT_NE(tel->profile_table(true).find("wall"), std::string::npos);
}

// A 128-pod cluster tags well over a thousand distinct sources; every
// one must get its own id and its exact count, with nothing spilling
// into (untagged).
TEST(PumpProfiler, ManySourcesKeepDistinctIdsAndExactCounts)
{
    constexpr std::size_t kSources = 1500;
    sim::PumpProfiler prof;
    sim::Simulator simu;
    simu.set_profiler(&prof);
    std::uint64_t expected_total = 0;
    for (std::size_t i = 0; i < kSources; ++i) {
        sim::SourceScope scope(simu, "src/" + std::to_string(i));
        for (std::size_t k = 0; k <= i % 3; ++k, ++expected_total)
            simu.schedule(static_cast<double>(i), [] {});
    }
    simu.run();

    EXPECT_EQ(prof.num_sources(), kSources + 1); // + (untagged)
    std::set<std::uint16_t> ids;
    for (std::size_t i = 0; i < kSources; ++i) {
        const std::string name = "src/" + std::to_string(i);
        const std::uint16_t id = prof.intern(name);
        ids.insert(id);
        EXPECT_EQ(prof.name(id), name);
        EXPECT_EQ(prof.bucket(id).fired, i % 3 + 1) << name;
    }
    EXPECT_EQ(ids.size(), kSources);
    EXPECT_EQ(ids.count(0), 0u);
    EXPECT_EQ(prof.bucket(0).fired, 0u);
    EXPECT_EQ(prof.total_fired(), expected_total);
    EXPECT_DOUBLE_EQ(prof.attributed_fraction(), 1.0);
}

// ---------------------------------------------------------------------
// Trace integration
// ---------------------------------------------------------------------

TEST(Telemetry, CounterTracksMergeIntoChromeTrace)
{
    auto cfg = telem_cell();
    cfg.record_trace = true;
    auto r = hs::run_experiment(cfg);
    ASSERT_FALSE(r.trace_json.empty());
    // The merged counter events live under the "telemetry" process.
    EXPECT_NE(r.trace_json.find("telemetry"), std::string::npos);
    EXPECT_NE(r.trace_json.find("ws_gpu_busy"), std::string::npos);

    // Without telemetry the trace has no counter tracks.
    cfg.telemetry.reset();
    auto bare = hs::run_experiment(cfg);
    EXPECT_EQ(bare.trace_json.find("ws_gpu_busy"), std::string::npos);
}
