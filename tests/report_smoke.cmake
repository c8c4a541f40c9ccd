# End-to-end smoke for `mapp_cli report`: run one real prediction on
# four lanes with the metrics and prediction sidecars enabled, render
# the report from them, and assert the required sections came out and
# that phases entered on pool lanes nest under their caller. Driven by
# ctest:
#   cmake -DMAPP_CLI=<path> -DWORK_DIR=<dir> -P report_smoke.cmake

foreach(var MAPP_CLI WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "report_smoke: -D${var}=... is required")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(metrics "${WORK_DIR}/metrics.json")
set(predictions "${WORK_DIR}/predictions.jsonl")

execute_process(
    COMMAND "${MAPP_CLI}"
            "--threads=4"
            "--metrics-out=${metrics}"
            "--predictions-out=${predictions}"
            predict SIFT@20 FAST@20
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "report_smoke: predict failed (${rc}):\n${out}\n${err}")
endif()

foreach(sidecar metrics predictions)
    if(NOT EXISTS "${${sidecar}}")
        message(FATAL_ERROR
                "report_smoke: predict left no ${sidecar} sidecar at "
                "${${sidecar}}")
    endif()
endforeach()

execute_process(
    COMMAND "${MAPP_CLI}" report "${metrics}" "${predictions}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE report
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "report_smoke: report failed (${rc}):\n${report}\n${err}")
endif()

foreach(section
        "# MAPP run report"
        "## Phase tree"
        "## Latency percentiles"
        "## Prediction quality"
        "## Top-error predictions"
        "## Drift flags"
        "## Counters")
    string(FIND "${report}" "${section}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "report_smoke: report is missing '${section}':\n"
                "${report}")
    endif()
endforeach()

# The provenance flowed end to end: the report must carry at least one
# audited prediction row (the table header is only emitted with rows).
string(FIND "${report}" "| seq |" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
            "report_smoke: no audited predictions in the report:\n"
            "${report}")
endif()

# The phase tree comes from the metrics sidecar alone. Profiling runs
# on pool lanes inside campaign collection, so every `vision-profile`
# line must be indented under its caller, never a top-level bullet.
string(FIND "${report}" "`vision-profile`" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
            "report_smoke: no vision-profile phase in the report:\n"
            "${report}")
endif()
string(REGEX MATCH "(^|\n)- `vision-profile`" top_level "${report}")
if(top_level)
    message(FATAL_ERROR
            "report_smoke: vision-profile is a top-level phase:\n"
            "${report}")
endif()

# The report takes no third sidecar: the trace is not an input.
execute_process(
    COMMAND "${MAPP_CLI}" report "${metrics}" "${predictions}"
            "${WORK_DIR}/trace.json"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_QUIET)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "report_smoke: a third report argument exited ${rc}, not 2")
endif()
