/**
 * @file
 * Table 2 — dataset statistics of the synthetic ShareGPT / LongBench
 * workload generators, printed next to the paper's reported values.
 */
#include <iostream>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

void
emit(const std::string &name, const workload::DatasetConfig &cfg,
     double paper[6])
{
    workload::TraceConfig tc;
    tc.dataset = cfg;
    tc.arrival.rate = 1.0;
    tc.num_requests = 50000;
    tc.seed = 20250704;
    auto trace = workload::TraceBuilder(tc).build();
    auto s = workload::TraceBuilder::stats(trace);

    harness::TextTable t({"", "prompt avg", "prompt med", "prompt P90",
                          "output avg", "output med", "output P90"});
    t.add_row({"paper", harness::cell(paper[0], 1),
               harness::cell(paper[1], 0), harness::cell(paper[2], 0),
               harness::cell(paper[3], 1), harness::cell(paper[4], 0),
               harness::cell(paper[5], 0)});
    t.add_row({"generated", harness::cell(s.prompt.mean(), 1),
               harness::cell(s.prompt.median(), 0),
               harness::cell(s.prompt.p90(), 0),
               harness::cell(s.output.mean(), 1),
               harness::cell(s.output.median(), 0),
               harness::cell(s.output.p90(), 0)});
    std::cout << "== Table 2: " << name << " (50k samples) ==\n"
              << t.render() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    harness::FlagTable().parse_or_exit(argc, argv); // takes no arguments
    double sharegpt[6] = {768.2, 695, 1556, 195.9, 87, 518};
    emit("ShareGPT", workload::DatasetConfig::sharegpt(), sharegpt);

    double longbench[6] = {2890.4, 2887, 3792, 97.4, 12, 369};
    emit("LongBench", workload::DatasetConfig::longbench(), longbench);
    return 0;
}
