# cmake -DBIN=<bench binary> -P same_output.cmake
#
# Runs BIN at MN_RUN_SCALE=0.05 with MN_THREADS=1 and again with
# MN_THREADS=4, and fails unless both exit 0 with byte-identical stdout.
foreach(threads 1 4)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env MN_RUN_SCALE=0.05 MN_THREADS=${threads} ${BIN}
    OUTPUT_VARIABLE out_${threads}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} with MN_THREADS=${threads} exited with ${rc}")
  endif()
endforeach()
if(NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "${BIN}: stdout differs between MN_THREADS=1 and MN_THREADS=4")
endif()
