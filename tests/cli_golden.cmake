# Run one CLI invocation and byte-compare its output with a golden
# file. Invoked by the `cli`-labelled ctest cases:
#   cmake -DBIN=<exe> -DARGS="<args>" -DGOLDEN=<file> -DOUT=<file>
#         [-DEXIT=<code>] -P cli_golden.cmake
# Without EXIT the run must exit 0 and the golden is its stdout. With
# EXIT the run must exit with that code, and the golden is its stdout
# followed by the first line of its stderr (the fatal message; the
# source location on the next line is left out).
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED EXIT)
    execute_process(COMMAND "${BIN}" ${args}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL EXIT)
        message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}, "
                            "expected ${EXIT}")
    endif()
    string(REGEX MATCH "^[^\n]*\n?" first_err "${err}")
    file(WRITE "${OUT}" "${out}${first_err}")
else()
    execute_process(COMMAND "${BIN}" ${args}
        OUTPUT_FILE "${OUT}"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
    endif()
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${OUT}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "output of '${BIN} ${ARGS}' (${OUT}) differs "
                        "from ${GOLDEN}")
endif()
