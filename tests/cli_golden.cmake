# Run one CLI invocation and byte-compare its stdout with a golden
# file. Invoked by the `cli`-labelled ctest cases:
#   cmake -DBIN=<exe> -DARGS="<args>" -DGOLDEN=<file> -DOUT=<file>
#         -P cli_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
    OUTPUT_FILE "${OUT}"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${OUT}" "${GOLDEN}"
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "stdout of '${BIN} ${ARGS}' (${OUT}) differs "
                        "from ${GOLDEN}")
endif()
