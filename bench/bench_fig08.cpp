/**
 * @file
 * Figure 8 — single forward pass prefill and decoding time under
 * regular hybrid batching (Regular) vs stream-based disaggregation
 * (SBD): 16 decode requests (context 2048 each) batched with a varying
 * number of prefill tokens, for four model/parallelism settings.
 *
 * Expected shape (paper): Regular batching inflates the observed
 * decode time to the full pass duration; SBD keeps decode near its
 * standalone time while the prefill stream pays only a mild slowdown.
 * The LLaMA2-70B column reproduces the §3.4 case study (chunked-512
 * prefill ~1.4 s vs SBD ~0.75 s, decode 0.35 s -> 0.34 s).
 */
#include <iostream>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

void
panel(const model::ModelSpec &spec, model::ParallelismConfig par)
{
    model::CostModel cm(spec, hw::GpuSpec::a800_80g(), par);
    const double b = 16, ctx = 2048, sum_l = b * ctx;
    std::cout << "-- " << spec.name << " [" << par.to_string() << "] --\n";
    harness::TextTable t({"prefill tokens", "decode alone (s)",
                          "Regular: pass=(decode obs) (s)",
                          "Regular: prefill obs (s)", "SBD decode (s)",
                          "SBD prefill (s)"});
    for (double n : {256.0, 512.0, 1024.0, 2048.0}) {
        double d_alone = cm.decode_time(b, sum_l);
        double hybrid = cm.hybrid_time(n, b, sum_l);
        t.add_row({harness::cell(n, 0), harness::cell(d_alone, 3),
                   harness::cell(hybrid, 3), harness::cell(hybrid, 3),
                   harness::cell(cm.sbd_decode_time(b, sum_l), 3),
                   harness::cell(cm.sbd_prefill_time(n), 3)});
    }
    std::cout << t.render() << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    harness::FlagTable().parse_or_exit(argc, argv); // takes no arguments
    std::cout << "== Figure 8: Regular batching vs Stream-Based "
                 "Disaggregation, single forward pass ==\n"
              << "(16 decode requests @ context 2048 + N prefill "
                 "tokens)\n\n";
    panel(model::ModelSpec::opt_13b(), {2, 1});
    panel(model::ModelSpec::llama2_13b(), {2, 1});
    panel(model::ModelSpec::opt_66b(), {2, 2});
    panel(model::ModelSpec::llama2_70b(), {2, 2});

    // The §3.4 chunked-prefill case study for LLaMA2-70B.
    model::CostModel cm(model::ModelSpec::llama2_70b(),
                        hw::GpuSpec::a800_80g(), {2, 2});
    double chunked_total = 0.0;
    for (double done = 0; done < 2048; done += 512)
        chunked_total +=
            cm.chunked_iteration_time(512, done, 16, 16 * 2048);
    std::cout << "LLaMA2-70B 2048-token prefill case study (paper: "
                 "chunked ~1.4s, SBD ~0.75s, decode 0.35->0.34s):\n"
              << "  chunked-prefill (512) total : "
              << harness::cell(chunked_total, 3) << " s\n"
              << "  SBD prefill stream          : "
              << harness::cell(cm.sbd_prefill_time(2048), 3) << " s\n"
              << "  decode alone / with SBD     : "
              << harness::cell(cm.decode_time(16, 16 * 2048), 3) << " / "
              << harness::cell(cm.sbd_decode_time(16, 16 * 2048), 3)
              << " s\n";
    return 0;
}
