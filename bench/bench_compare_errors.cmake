# Drives tools/bench_compare down its two refusal paths and requires a
# clean message, never a Python traceback, from each:
#   * a --filter that matches no benchmark exits non-zero and names the
#     results file and the filter;
#   * --update with --filter is refused and leaves the baseline untouched.
# Every file it writes lands in OUT_DIR.
#
#   cmake -DBENCH_COMPARE=<repo>/tools/bench_compare -DOUT_DIR=<build dir>
#         -DBASELINE=<repo>/bench/baselines/BENCH_micro.json
#         -P bench/bench_compare_errors.cmake

function(expect_refusal what pattern)  # ARGN: the bench_compare arguments
  execute_process(COMMAND "${BENCH_COMPARE}" ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(text "${out}${err}")
  if(status EQUAL 0)
    message(FATAL_ERROR "${what}: bench_compare exited 0\n${text}")
  endif()
  if(text MATCHES "Traceback")
    message(FATAL_ERROR "${what}: bench_compare died in a traceback\n${text}")
  endif()
  if(NOT text MATCHES "${pattern}")
    message(FATAL_ERROR "${what}: no message matching '${pattern}'\n${text}")
  endif()
  message(STATUS "${what}: refused (exit ${status})")
endfunction()

# The baseline both cases point at: a copy, so a regression that writes
# over it cannot touch the committed file.
set(baseline "${OUT_DIR}/bench_compare_errors_baseline.json")
configure_file("${BASELINE}" "${baseline}" COPYONLY)

# google-benchmark leaves an empty results file when nothing matches.
set(nomatch "${OUT_DIR}/bench_compare_errors_nomatch.json")
expect_refusal("no-match filter"
               "no benchmark results in ${nomatch} .* --filter '\\^NoSuch\\$' matched no benchmark"
               --bench micro --build "${OUT_DIR}" --baseline "${baseline}"
               --json "${nomatch}" --filter "^NoSuch$" --min-time 0.01)

# A valid one-benchmark result: without the refusal, --update would copy
# it over the baseline and truncate it.
set(subset "${OUT_DIR}/bench_compare_errors_subset.json")
file(WRITE "${subset}" [=[{"benchmarks": [{"name": "BM_Subset", "run_type": "iteration", "real_time": 1.0, "time_unit": "ns"}]}
]=])
expect_refusal("--update --filter" "--update with --filter"
               --bench micro --baseline "${baseline}" --json "${subset}"
               --no-run --update --filter BM_Subset)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${baseline}"
                        "${BASELINE}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "--update --filter changed ${baseline}")
endif()
message(STATUS "the baseline copy is unchanged")
