# Runs one command-line invocation and checks what it did:
#
#   cmake -DEXPECT_RC=<code> [-DGOLDEN=<file>] [-DSTDERR_REGEX=<regex>]
#         -P cli_check.cmake -- <binary> [args...]
#
# EXPECT_RC is the required exit code; GOLDEN, when given, must match stdout
# byte for byte; STDERR_REGEX, when given, must match somewhere in stderr.
set(cmd)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "cli_check: no command after '--'")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT "${rc}" STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "cli_check: exit ${rc}, want ${EXPECT_RC}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED GOLDEN)
  file(READ "${GOLDEN}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "cli_check: stdout differs from ${GOLDEN}\ngot:\n${out}\nwant:\n${want}")
  endif()
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "cli_check: stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
