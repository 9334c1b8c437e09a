# Run a command and require a given exit status and a stderr match
# (and, when EXPECT_STDOUT is given, a stdout match):
#
#   cmake -DEXPECT_EXIT=2 -DEXPECT_STDERR=regex -P ExpectExit.cmake -- cmd args...
#
# A crash or a kill by signal reports a non-numeric status and fails the
# check, as does any other exit status.
set(Cmd)
set(Seen FALSE)
math(EXPR Last "${CMAKE_ARGC} - 1")
foreach(I RANGE ${Last})
  if(Seen)
    list(APPEND Cmd "${CMAKE_ARGV${I}}")
  elseif("${CMAKE_ARGV${I}}" STREQUAL "--")
    set(Seen TRUE)
  endif()
endforeach()
execute_process(COMMAND ${Cmd} RESULT_VARIABLE Rc OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT Rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got '${Rc}': ${Err}")
endif()
if(NOT Err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}': ${Err}")
endif()
if(DEFINED EXPECT_STDOUT AND NOT Out MATCHES "${EXPECT_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_STDOUT}': ${Out}")
endif()
