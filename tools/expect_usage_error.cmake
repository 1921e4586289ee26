# Run one psca invocation that must be rejected as bad usage: it has
# to exit with status 2 and print a stderr line matching EXPECT.
#
#   cmake -DPSCA=<path to psca> -DARGS="run hpc:1 --mode lwo"
#         -DEXPECT="--mode 'lwo'" -P expect_usage_error.cmake
separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PSCA}" ${argv}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
    message(FATAL_ERROR "psca ${ARGS}: exit status '${status}', "
                        "expected 2\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "psca ${ARGS}: stderr does not match "
                        "'${EXPECT}'\nstderr: ${err}")
endif()
