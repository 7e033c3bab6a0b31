# Command-line smoke (ctest `cli_smoke`): every driver parses its
# arguments through the one flag table (harness/flags.hpp).
#   * A bad argument (unknown flag, malformed number, missing value,
#     unknown system) exits 2 with the usage, never aborts.
#   * Every invocation documented in README.md, EXPERIMENTS.md,
#     DESIGN.md, the verify notes and tests/*.cmake parses and runs, at a
#     tiny request count.
# Inputs: BENCH_DIR, EXAMPLES_DIR, OUT (scratch directory).
file(MAKE_DIRECTORY ${OUT})

function(expect_rc want)
    execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${OUT}
                    RESULT_VARIABLE rc OUTPUT_QUIET
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "${want}")
        string(SUBSTRING "${err}" 0 2000 err)
        message(FATAL_ERROR "`${ARGN}` exited ${rc}, want ${want}\n${err}")
    endif()
endfunction()

set(B ${BENCH_DIR})
set(E ${EXAMPLES_DIR})

# Drivers on the shared figure-driver flags (bench_common.hpp).
set(fig_drivers fig01 fig02 fig03 fig05 fig10_chatbot fig10_summarization
                fig11 fig12 fig13 ablation placement fault)

foreach(d ${fig_drivers} table1 table2 fig08 scale micro)
    expect_rc(2 ${B}/bench_${d} --bogus)
endforeach()
expect_rc(2 ${E}/fuzz_runner --bogus)

foreach(d ${fig_drivers})
    expect_rc(2 ${B}/bench_${d} --jobs=abc)
    expect_rc(2 ${B}/bench_${d} --jobs abc)
    expect_rc(2 ${B}/bench_${d} 42x)
    expect_rc(2 ${B}/bench_${d} --jobs)
endforeach()
expect_rc(2 ${B}/bench_fault --replicas=)
expect_rc(2 ${B}/bench_fault --json PATH)
expect_rc(2 ${B}/bench_scale --jobs=abc)
expect_rc(2 ${B}/bench_scale --requests=-1)
expect_rc(2 ${B}/bench_scale --rate 1.2x)
expect_rc(2 ${B}/bench_micro --iters=x)
expect_rc(2 ${E}/fuzz_runner --iters=x)
expect_rc(2 ${E}/fuzz_runner --seed=)
expect_rc(2 ${E}/fuzz_runner --system=sglang)
expect_rc(2 ${E}/fuzz_runner --repro-seed=1 --repro-config=bench_scale)

# Examples read their positional arguments through the same table; a
# trace CSV that cannot be read is an input error, not an abort.
foreach(ex quickstart chatbot_sharegpt heterogeneous_cluster
           summarization_longbench bottleneck_aware)
    expect_rc(2 ${E}/${ex} abc)
    expect_rc(2 ${E}/${ex} --bogus)
endforeach()
expect_rc(2 ${E}/quickstart 4.0 abc)
expect_rc(2 ${E}/heterogeneous_cluster 2.5x)
expect_rc(2 ${E}/trace_replay missing.csv)
file(WRITE ${OUT}/bad.csv "arrival_time,prompt_tokens,output_tokens\n0,abc,1\n")
expect_rc(2 ${E}/trace_replay bad.csv)

# Documented invocations, request counts shrunk.
expect_rc(0 ${B}/bench_table1)
expect_rc(0 ${B}/bench_fig01 12 --jobs 1)
expect_rc(0 ${B}/bench_fig01 12 -j 2 --trace-out run.json)
expect_rc(0 ${B}/bench_fig10_chatbot 12 --jobs 2)
expect_rc(0 ${B}/bench_fig10_chatbot 12 --jobs=2 --metrics-out run.prom)
expect_rc(0 ${B}/bench_fig10_chatbot 12 --jobs 2 --trace-out run.json
            --metrics-out run.prom --sample-every 0.5)
expect_rc(0 ${B}/bench_fault 12 --jobs 2)
expect_rc(0 ${B}/bench_fault 12 --jobs 2 --replicas=3 --audit
            --json=fault.json)
expect_rc(0 ${B}/bench_fault 12 --jobs 2 --replicas=3 --audit --json)
expect_rc(0 ${B}/bench_micro --json=simcore.json --iters 2000)
expect_rc(0 ${B}/bench_micro --json --iters=2000)
expect_rc(0 ${B}/bench_scale --json=scale.json --jobs=1 --requests=2)
expect_rc(0 ${B}/bench_scale --jobs 2 --requests=2 --rate=2.0 --audit)
expect_rc(0 ${B}/bench_scale --jobs=1 --requests 2 --spine-oversub=1
            --highwater=0.5 --lowwater=0.4)
expect_rc(0 ${E}/quickstart 4 12)
expect_rc(0 ${E}/chatbot_sharegpt 12 chatbot.csv)
expect_rc(0 ${E}/fuzz_runner --iters=1 --seed=1 --jobs=2)
expect_rc(0 ${E}/fuzz_runner --iters=1 --jobs=2 --nodes=2 --chaos)
expect_rc(0 ${E}/fuzz_runner --iters=1 --jobs=2 --chaos --ctrl-chaos
            --replicas=3)
expect_rc(0 ${E}/fuzz_runner --iters 1 --jobs 2 --system vllm)
expect_rc(0 ${E}/fuzz_runner --repro-seed=25 --repro-config=WindServe
            --log=debug)
expect_rc(0 ${E}/fuzz_runner --repro-seed=77 --repro-config=windserve
            --chaos --nodes=2 --replicas=3 --ctrl-chaos)
