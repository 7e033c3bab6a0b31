/**
 * @file
 * Table 1 — per-layer overhead analysis of Attention and FFN.
 *
 * Regenerates the paper's Table 1 (FLOPs and IO bytes per layer for the
 * OPT family in FP16) from the implemented formulas, at a representative
 * operating point, and prints the symbolic forms next to evaluated
 * values so they can be checked against the paper by eye.
 */
#include <cstdio>
#include <iostream>

#include "windserve/windserve.hpp"

using namespace windserve;

namespace {

std::string
eng(double v)
{
    char buf[32];
    if (v >= 1e12)
        std::snprintf(buf, sizeof(buf), "%.2fT", v / 1e12);
    else if (v >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    harness::FlagTable().parse_or_exit(argc, argv); // takes no arguments
    std::cout << "== Table 1: per-layer FLOPs / IO bytes (OPT family, "
                 "FP16) ==\n"
              << "operating point: B=16, N=1024 prefill tokens, "
                 "sumL=16x1024, per model hidden size H\n\n";

    harness::TextTable table({"model", "H", "Attn prefill FLOPs",
                              "Attn decode FLOPs", "FFN prefill FLOPs",
                              "FFN decode FLOPs", "FFN IO bytes",
                              "KV IO bytes"});
    const double b = 16, n = 1024, sum_l = 16 * 1024;
    for (const auto &m : {model::ModelSpec::opt_13b(),
                          model::ModelSpec::opt_66b(),
                          model::ModelSpec::opt_175b()}) {
        double h = static_cast<double>(m.hidden_size);
        table.add_row({m.name, std::to_string(m.hidden_size),
                       eng(model::table1::attn_prefill_flops(n, h)),
                       eng(model::table1::attn_decode_flops(b, sum_l, h)),
                       eng(model::table1::ffn_prefill_flops(n, h)),
                       eng(model::table1::ffn_decode_flops(b, h)),
                       eng(model::table1::ffn_io_bytes(h)),
                       eng(model::table1::attn_kv_io_bytes(sum_l, h))});
    }
    std::cout << table.render() << "\n";

    std::cout << "symbolic forms (paper Table 1):\n"
              << "  Attn prefill FLOPs : 8NH^2 + 4N^2H\n"
              << "  Attn decode  FLOPs : 8BH^2 + 4*sumL*H\n"
              << "  FFN  prefill FLOPs : 16NH^2\n"
              << "  FFN  decode  FLOPs : 16BH^2\n"
              << "  FFN  IO bytes      : 16H^2 (FP16)\n"
              << "  Attn KV IO bytes   : 4*sumL*H (K+V, FP16)\n\n";

    // The consequence the paper draws: prefill is compute-bound, decode
    // is IO-bound. Show arithmetic intensity per phase.
    std::cout << "arithmetic intensity (FLOPs/byte, whole model):\n";
    harness::TextTable ai({"model", "prefill AI", "decode AI",
                           "A800 ridge point"});
    for (const auto &m : {model::ModelSpec::opt_13b(),
                          model::ModelSpec::opt_66b()}) {
        auto p = model::prefill_pass(m, n);
        auto d = model::decode_pass(m, b, sum_l);
        auto gpu = hw::GpuSpec::a800_80g();
        ai.add_row({m.name, harness::cell(p.flops / p.io_bytes, 1),
                    harness::cell(d.flops / d.io_bytes, 1),
                    harness::cell(gpu.peak_fp16_flops / gpu.mem_bandwidth,
                                  1)});
    }
    std::cout << ai.render()
              << "\n(prefill AI >> ridge point -> compute-bound; decode "
                 "AI << ridge point -> IO-bound, as §3.2.1 argues)\n";
    return 0;
}
