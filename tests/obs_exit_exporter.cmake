# Runs `gelc_stats train` in a fresh process with the trace and timing
# planes on, then checks the latency table the exit exporter prints to
# stderr: every series line must satisfy
#   0 <= p50 <= p90 <= p99 <= 68719.477 ms,
# the upper limit being the last bucket bound (2^36 ns), which is the
# largest value LatencyHistogram::QuantileNs returns. The exporter runs
# at process exit, alongside static destruction, so a value it reads from
# a destroyed object shows up here even in builds without a sanitizer.
#
#   cmake -DGELC_STATS=<gelc_stats> -DTRACE_OUT=<trace.json> \
#         -P obs_exit_exporter.cmake
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env GELC_TIMINGS=1 GELC_TRACE=1
          GELC_TRACE_OUT=${TRACE_OUT} ${GELC_STATS} train
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "gelc_stats train exited with ${status}:\n${err}")
endif()

set(max_ms 68719.477)
set(num "(-?[0-9.]+)")
set(in_table FALSE)
set(series 0)
string(REPLACE "\n" ";" lines "${err}")
foreach(line IN LISTS lines)
  if(line MATCHES "^timer +count +p50_ms +p90_ms +p99_ms")
    set(in_table TRUE)
  elseif(line MATCHES "^phase rollup")
    set(in_table FALSE)
  elseif(in_table)
    if(NOT line MATCHES "^[^ ]+ +[0-9]+ +${num} +${num} +${num} ")
      message(FATAL_ERROR "unparseable latency line: '${line}'\n${err}")
    endif()
    set(p50 ${CMAKE_MATCH_1})
    set(p90 ${CMAKE_MATCH_2})
    set(p99 ${CMAKE_MATCH_3})
    if(p50 LESS 0 OR p90 LESS p50 OR p99 LESS p90 OR p99 GREATER max_ms)
      message(FATAL_ERROR
        "percentiles out of order or range (need 0 <= p50 <= p90 <= p99 "
        "<= ${max_ms} ms): '${line}'\n${err}")
    endif()
    math(EXPR series "${series} + 1")
  endif()
endforeach()
if(series EQUAL 0)
  message(FATAL_ERROR "no latency table on stderr:\n${err}")
endif()
message(STATUS "${series} latency series, all percentiles in order")
