# Writes OUT, a header defining MFC_GIT_COMMIT for the BENCH_*.json records:
# the short HEAD hash of the checkout at SOURCE_DIR, with "-dirty" when
# tracked files differ from HEAD, or "unknown" outside a git checkout.
# Run on every build (cmake -P); OUT is rewritten only when the value
# changes, so an unchanged commit recompiles nothing.
set(commit "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" rev-parse --short HEAD
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE rc)
  if(rc EQUAL 0)
    set(commit "${head}")
    execute_process(
      COMMAND "${GIT_EXECUTABLE}" diff --quiet HEAD --
      WORKING_DIRECTORY "${SOURCE_DIR}"
      OUTPUT_QUIET
      ERROR_QUIET
      RESULT_VARIABLE dirty)
    if(dirty EQUAL 1)
      string(APPEND commit "-dirty")
    endif()
  endif()
endif()
set(content "#define MFC_GIT_COMMIT \"${commit}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
