/**
 * @file
 * Unit tests for the experiment harness (scenarios, runner, sweep,
 * tables).
 */
#include <gtest/gtest.h>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"

namespace hs = windserve::harness;

TEST(Scenario, Table3PlacementsEncoded)
{
    auto s13 = hs::Scenario::opt13b_sharegpt();
    EXPECT_EQ(s13.prefill_parallelism, (windserve::model::ParallelismConfig{2, 1}));
    EXPECT_EQ(s13.decode_parallelism, (windserve::model::ParallelismConfig{2, 1}));
    EXPECT_EQ(s13.num_gpus(), 4u);

    auto s66 = hs::Scenario::opt66b_sharegpt();
    EXPECT_EQ(s66.prefill_parallelism, (windserve::model::ParallelismConfig{2, 2}));
    EXPECT_EQ(s66.num_gpus(), 8u);

    auto l70 = hs::Scenario::llama2_70b_longbench();
    EXPECT_EQ(l70.model.name, "LLaMA2-70B");
    EXPECT_EQ(l70.num_gpus(), 8u);
}

TEST(Scenario, Table4SlosEncoded)
{
    EXPECT_DOUBLE_EQ(hs::Scenario::opt13b_sharegpt().slo.ttft, 0.25);
    EXPECT_DOUBLE_EQ(hs::Scenario::opt66b_sharegpt().slo.tpot, 0.15);
    EXPECT_DOUBLE_EQ(hs::Scenario::llama2_13b_longbench().slo.ttft, 4.0);
}

TEST(Scenario, DatasetsMatchModels)
{
    EXPECT_EQ(hs::Scenario::opt13b_sharegpt().dataset.kind,
              windserve::workload::DatasetKind::ShareGPT);
    EXPECT_EQ(hs::Scenario::llama2_13b_longbench().dataset.kind,
              windserve::workload::DatasetKind::LongBench);
    // Context caps track the model.
    EXPECT_EQ(hs::Scenario::opt13b_sharegpt().dataset.max_context, 2048u);
    EXPECT_EQ(hs::Scenario::llama2_70b_longbench().dataset.max_context,
              4096u);
}

TEST(Scenario, SmallDecodeVariantForFig3)
{
    auto s = hs::Scenario::opt13b_sharegpt_small_decode();
    EXPECT_EQ(s.decode_parallelism.num_gpus(), 1u);
    EXPECT_EQ(s.num_gpus(), 3u);
}

TEST(Experiment, TraceUsesPerGpuRate)
{
    hs::ExperimentConfig ec;
    ec.per_gpu_rate = 2.0; // 4 GPUs -> 8 req/s aggregate
    ec.num_requests = 4000;
    auto trace = hs::make_trace(ec);
    double span = trace.back().arrival_time - trace.front().arrival_time;
    double rate = static_cast<double>(trace.size() - 1) / span;
    EXPECT_NEAR(rate, 8.0, 0.5);
}

TEST(Experiment, MakeSystemBuildsEveryKind)
{
    for (auto kind :
         {hs::SystemKind::WindServe, hs::SystemKind::DistServe,
          hs::SystemKind::Vllm, hs::SystemKind::WindServeNoSplit,
          hs::SystemKind::WindServeNoResche,
          hs::SystemKind::WindServeNoDispatch}) {
        hs::ExperimentConfig ec;
        ec.system = kind;
        auto sys = hs::make_system(ec);
        ASSERT_NE(sys, nullptr);
        EXPECT_EQ(sys->num_gpus(), 4u);
    }
}

TEST(Experiment, RunProducesMetrics)
{
    hs::ExperimentConfig ec;
    ec.per_gpu_rate = 1.0;
    ec.num_requests = 150;
    auto r = hs::run_experiment(ec);
    EXPECT_EQ(r.system_name, "WindServe");
    EXPECT_EQ(r.metrics.num_requests, 150u);
    EXPECT_EQ(r.metrics.num_finished, 150u);
    EXPECT_GT(r.metrics.ttft.count(), 0u);
}

TEST(Experiment, ThresholdOverridePlumbs)
{
    hs::ExperimentConfig lo, hi;
    lo.per_gpu_rate = hi.per_gpu_rate = 5.0;
    lo.num_requests = hi.num_requests = 400;
    lo.thrd = 0.01;
    hi.thrd = 1e6;
    auto rl = hs::run_experiment(lo);
    auto rh = hs::run_experiment(hi);
    EXPECT_GT(rl.dispatches, rh.dispatches);
    EXPECT_EQ(rh.dispatches, 0u);
}

TEST(Sweep, GridShapeAndOrdering)
{
    std::size_t cells = 0;
    auto result =
        hs::SweepBuilder()
            .systems({hs::SystemKind::WindServe, hs::SystemKind::DistServe})
            .rates({0.5, 1.0})
            .num_requests(120)
            .on_progress([&](std::size_t k, std::size_t total,
                             const hs::ExperimentResult &) {
                EXPECT_EQ(k, cells); // strictly in cell order
                EXPECT_EQ(total, 4u);
                ++cells;
            })
            .run();
    EXPECT_EQ(cells, 4u);
    ASSERT_EQ(result.results.size(), 2u);
    ASSERT_EQ(result.results[0].size(), 2u);
    EXPECT_EQ(result.results[0][0].system_name, "WindServe");
    EXPECT_EQ(result.results[1][1].system_name, "DistServe");
    EXPECT_DOUBLE_EQ(result.results[1][1].per_gpu_rate, 1.0);
}

TEST(Sweep, LatencyDegradesWithRate)
{
    auto result = hs::SweepBuilder()
                      .systems({hs::SystemKind::DistServe})
                      .rates({1.0, 5.0})
                      .num_requests(400)
                      .run();
    EXPECT_LT(result.results[0][0].metrics.ttft.median(),
              result.results[0][1].metrics.ttft.median());
}

TEST(TextTable, RendersAligned)
{
    hs::TextTable t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22222"});
    auto out = t.render();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("-----"), std::string::npos);
    // Column alignment: both rows contain the header width.
    auto header_end = out.find('\n');
    EXPECT_NE(header_end, std::string::npos);
}

TEST(TextTable, CsvOutput)
{
    hs::TextTable t({"a", "b"});
    t.add_row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TextTable, RowWidthEnforced)
{
    hs::TextTable t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, CellFormatsPrecision)
{
    EXPECT_EQ(hs::cell(1.23456, 2), "1.23");
    EXPECT_EQ(hs::cell(2.0, 0), "2");
}

TEST(SystemKind, NamesRoundTrip)
{
    EXPECT_STREQ(hs::to_string(hs::SystemKind::WindServe), "WindServe");
    EXPECT_STREQ(hs::to_string(hs::SystemKind::WindServeNoSplit),
                 "WindServe-no-split");
    EXPECT_STREQ(hs::to_string(hs::SystemKind::Vllm), "vLLM");
}

namespace {

/** The flag kinds every driver uses, on one table. */
struct DriverFlags {
    std::size_t n = 10;
    std::size_t jobs = 1;
    double rate = 1.0;
    std::string out;
    bool audit = false;
    std::string json;
    hs::FlagTable table{"prog"};

    DriverFlags()
    {
        table.positional("num_requests", n, "requests");
        table.add("--jobs", jobs, "threads").alias("-j");
        table.add("--rate", rate, "rate", "R");
        table.add("--trace-out", out, "trace file", "FILE");
        table.add("--audit", audit, "audit");
        table.add_optional("--json", json, "BENCH.json", "json");
    }
};

} // namespace

TEST(FlagTable, EverySpellingParses)
{
    DriverFlags a;
    a.table.parse({"42", "--jobs", "3", "--rate=1.5", "--trace-out", "t.json",
                   "--audit", "--json"});
    EXPECT_EQ(a.n, 42u);
    EXPECT_EQ(a.jobs, 3u);
    EXPECT_EQ(a.rate, 1.5);
    EXPECT_EQ(a.out, "t.json");
    EXPECT_TRUE(a.audit);
    EXPECT_EQ(a.json, "BENCH.json");
    EXPECT_TRUE(a.table.seen("--jobs"));

    DriverFlags b;
    b.table.parse({"-j", "5", "--json=x.json", "--jobs=6"});
    EXPECT_EQ(b.jobs, 6u); // the last spelling wins
    EXPECT_EQ(b.json, "x.json");
    EXPECT_EQ(b.n, 10u);
    EXPECT_FALSE(b.table.seen("--audit"));
}

TEST(FlagTable, MalformedArgumentsThrow)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--jobs=abc"},   {"--jobs", "42x"}, {"--jobs=-1"},
        {"--jobs="},      {"--jobs"},        {"-j"},
        {"--rate=1.5x"},  {"--rate", ""},    {"--audit=1"},
        {"--json="},      {"--bogus"},       {"abc"},
        {"7", "8"},       {"-5"},
    };
    for (const auto &args : bad) {
        DriverFlags f;
        EXPECT_THROW(f.table.parse(args), std::invalid_argument) << args[0];
    }
}

TEST(FlagTable, UnknownArgumentsPassThroughInOrder)
{
    std::size_t iters = 0;
    hs::FlagTable t;
    t.add("--iters", iters, "events");
    auto rest = t.parse({"--benchmark_filter=BM_x", "--iters", "7", "extra"},
                        true);
    EXPECT_EQ(iters, 7u);
    EXPECT_EQ(rest,
              (std::vector<std::string>{"--benchmark_filter=BM_x", "extra"}));
}

TEST(FlagTable, UsageListsEveryArgument)
{
    DriverFlags f;
    std::string u = f.table.usage();
    EXPECT_EQ(u.rfind("usage: prog [num_requests] [options]\n", 0), 0u) << u;
    for (const char *row : {"  num_requests ", "  --jobs N, -j N ",
                            "  --rate R ", "  --trace-out FILE ",
                            "  --audit ", "  --json[=PATH] "})
        EXPECT_NE(u.find(row), std::string::npos) << row << "\n" << u;
}

TEST(FlagTable, RenderShowsChangedFlagsInDeclarationOrder)
{
    DriverFlags f;
    EXPECT_EQ(f.table.render(), "");
    f.audit = true;
    f.jobs = 3;
    f.out = "t.json";
    EXPECT_EQ(f.table.render(), " --jobs=3 --trace-out=t.json --audit");
}
