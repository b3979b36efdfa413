# Runs bench_rebuild and bench_chaos with --json and requires each output to
# match its committed baseline byte for byte. Both benches report simulated
# time only, so any difference is a change in the model, never noise.
#
#   cmake -DBENCH_REBUILD=<bench_rebuild> -DBENCH_CHAOS=<bench_chaos>
#         -DOUT_DIR=<build dir> -DBASELINE_DIR=<repo>/bench/baselines
#         -P bench/baselines_exact.cmake

function(check_exact name)  # ARGN: the bench command line, minus --json
  set(fresh "${OUT_DIR}/BENCH_${name}.json")
  set(baseline "${BASELINE_DIR}/BENCH_${name}.json")
  execute_process(COMMAND ${ARGN} --json "${fresh}"
                  RESULT_VARIABLE status OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "bench_${name} failed (${status})")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${fresh}"
                          "${baseline}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR
            "${fresh} differs from ${baseline}; "
            "tools/bench_compare --bench ${name} --no-run shows which "
            "entries moved")
  endif()
  message(STATUS "BENCH_${name}.json matches its baseline byte for byte")
endfunction()

check_exact(rebuild "${BENCH_REBUILD}")
check_exact(chaos "${BENCH_CHAOS}" --plans 3)
