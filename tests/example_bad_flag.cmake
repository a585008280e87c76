# Locks the example CLIs' bad-flag contract: an unknown flag is reported on
# stderr as "error: ..." naming the flag, and the process exits 2 (the same
# status solver_cli uses for usage errors) instead of dying on an uncaught
# exception.
#
# Run via:  cmake "-DEXAMPLES=<bin1;bin2;...>" -P example_bad_flag.cmake

if(NOT DEFINED EXAMPLES)
  message(FATAL_ERROR "usage: cmake \"-DEXAMPLES=<bin;...>\" -P example_bad_flag.cmake")
endif()

foreach(example IN LISTS EXAMPLES)
  execute_process(
    COMMAND "${example}" --bogus=1
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR
            "${example} --bogus=1: expected exit 2, got ${rc}\n${out}\n${err}")
  endif()
  if(NOT err MATCHES "error: .*--bogus")
    message(FATAL_ERROR
            "${example} --bogus=1: stderr does not name the flag\n${err}")
  endif()
  message(STATUS "${example} --bogus=1: exit 2")
endforeach()
