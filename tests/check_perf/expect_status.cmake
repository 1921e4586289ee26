# Run tools/check_perf.py --blocking on fixture files: it has to exit
# with STATUS and, when EXPECT is set, print a line matching it.
#
#   cmake -DPYTHON=python3 -DSCRIPT=tools/check_perf.py
#         -DREPORT=report.json -DBASELINE=baseline.json -DSTATUS=1
#         -DEXPECT="baseline.json missing" -P expect_status.cmake
execute_process(
    COMMAND "${PYTHON}" "${SCRIPT}" "${REPORT}" "${BASELINE}" --blocking
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "${STATUS}")
    message(FATAL_ERROR "check_perf.py ${REPORT} ${BASELINE}: exit "
                        "status '${status}', expected ${STATUS}\n"
                        "stdout: ${out}\nstderr: ${err}")
endif()
if(EXPECT AND NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "check_perf.py ${REPORT} ${BASELINE}: stdout "
                        "does not match '${EXPECT}'\nstdout: ${out}")
endif()
