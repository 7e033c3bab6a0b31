# Run bench_scale's --json mode and validate the emitted
# BENCH_scale.json schema and the deterministic fields' sanity.
#
# REQUESTS (optional) is the per-pod trace size; without it bench_scale
# runs its default, the size of the committed baseline. BASELINE
# (optional) is the committed BENCH_scale.json: the 512-GPU cell's
# fresh events_per_sec must then be at least TOLERANCE x the committed
# figure (default 0.40, override via the WS_PERF_TOLERANCE env var; 0
# disables the gate). Like perf_smoke the gate is a regression band,
# and it is enforced only when the emitted run is comparable with the
# baseline: same build flavor, same hw_threads and the same request
# count. ctest `scale_smoke` (label `scale`) runs the small schema
# check; `scale_perf_gate` (label `perf-smoke`) runs the full sweep.
if(DEFINED REQUESTS)
    set(REQUESTS_ARG --requests=${REQUESTS})
endif()
# --jobs=1: wall clocks are only comparable when cells run one at a time.
execute_process(COMMAND ${BENCH} --json=${OUT} --jobs=1 ${REQUESTS_ARG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_scale --json failed (rc=${rc})")
endif()
execute_process(
    COMMAND ${PYTHON} -c "
import json, os, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc['bench'] == 'scale', doc
assert doc['schema_version'] == 4, doc
assert doc['build'] in ('optimized', 'debug'), doc
assert doc['hw_threads'] >= 1, doc
sweep = doc['sweep']
# Three uniform-fabric sizes plus the 8-node oversubscribed-spine cell.
assert [w['gpus'] for w in sweep] == [8, 64, 512, 64], sweep
assert [w['spine_oversub'] for w in sweep] == [1.0, 1.0, 1.0, 4.0], sweep
for w in sweep:
    for field in ('num_nodes', 'pods_per_node', 'pods', 'requests',
                  'events', 'wall_s', 'events_per_sec', 'finished',
                  'unfinished', 'mean_ttft_s', 'p99_ttft_s', 'mean_tpot_s',
                  'slo_attainment', 'makespan_s', 'dispatches',
                  'cross_offloads', 'cross_redispatches', 'audit_events',
                  'checksum', 'spine_oversub'):
        assert field in w, (w['gpus'], field)
    assert w['gpus'] == w['pods'] * 4, w
    assert w['pods'] == w['num_nodes'] * w['pods_per_node'], w
    assert w['events'] > 0 and w['wall_s'] > 0, w
    assert w['finished'] + w['unfinished'] == w['requests'], w
    assert w['finished'] > 0 and w['dispatches'] >= 0, w
    assert 0.0 <= w['slo_attainment'] <= 1.0, w
    # ROADMAP item-1 remnant, fixed: the headline watermarks must make
    # the cross-pod offload path fire at the 64- and 512-GPU cells
    # (2-pod cells fluctuate too coherently to diverge, so gpus=8 may
    # legitimately stay at 0).
    if w['gpus'] >= 64:
        assert w['cross_offloads'] > 0, ('no cross-pod offloads', w)
print('BENCH_scale.json schema OK:',
      ', '.join('%d GPUs' % w['gpus'] for w in sweep))

tolerance = float(os.environ.get('WS_PERF_TOLERANCE', '0.40'))
baseline_path = sys.argv[2] if len(sys.argv) > 2 else ''
if tolerance <= 0 or not baseline_path or not os.path.exists(baseline_path):
    print('baseline comparison skipped (no baseline or tolerance 0)')
    sys.exit(0)
with open(baseline_path) as f:
    base = json.load(f)
def cell_512(d):
    return next(w for w in d['sweep']
                if w['gpus'] == 512 and w['spine_oversub'] == 1.0)
fresh, ref = cell_512(doc), cell_512(base)
for key, a, b in (('build flavor', doc['build'], base['build']),
                  ('hw_threads', doc['hw_threads'], base['hw_threads']),
                  ('512-GPU requests', fresh['requests'], ref['requests'])):
    if a != b:
        print('baseline comparison skipped: %s %r vs baseline %r'
              % (key, a, b))
        sys.exit(0)
floor = tolerance * ref['events_per_sec']
ok = fresh['events_per_sec'] >= floor
print('512 GPUs %8.3f M ev/s vs baseline %8.3f (floor %.3f) %s'
      % (fresh['events_per_sec'] / 1e6, ref['events_per_sec'] / 1e6,
         floor / 1e6, 'ok' if ok else 'REGRESSION'))
if not ok:
    sys.exit('512-GPU events/sec regression beyond %.0f%% tolerance band'
             % (100 * (1 - tolerance)))
" ${OUT} ${BASELINE}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "emitted scale JSON failed validation: ${OUT}")
endif()
