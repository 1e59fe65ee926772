# Runs CMD and compares its stdout with the file GOLDEN byte for byte.
#   cmake -DCMD=<program> -DGOLDEN=<file> -P compare_stdout.cmake
execute_process(COMMAND ${CMD} OUTPUT_VARIABLE got RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${CMD} exited with status ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "stdout of ${CMD} differs from ${GOLDEN}; it printed:\n${got}")
endif()
