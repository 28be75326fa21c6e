# xicheck golden driver, run in CMake script mode by ctest:
#
#   cmake -DXICHECK=path/to/xicheck -DARGS="--stream doc.xml"
#         -DGOLDEN=case.golden -DWORKDIR=<fixture dir> -P check_golden.cmake
#
# Runs xicheck with ARGS (space-separated) from WORKDIR, so the file
# names it prints are the fixtures' relative names, and compares the exit
# code, stdout and stderr to GOLDEN byte for byte. With the environment
# variable XICHECK_GOLDEN_UPDATE set, the run rewrites GOLDEN instead of
# comparing:
#
#   XICHECK_GOLDEN_UPDATE=1 ctest -R 'xicheck_golden.*(dom|demo|refused)'
#
# (the DOM cases write the goldens the --stream cases are then held to).

foreach(var XICHECK GOLDEN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: ${var} not set")
  endif()
endforeach()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${XICHECK} ${arg_list}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text)
set(actual
  "exit code: ${exit_code}\n--- stdout ---\n${stdout_text}--- stderr ---\n${stderr_text}")

if(DEFINED ENV{XICHECK_GOLDEN_UPDATE})
  file(WRITE ${GOLDEN} "${actual}")
  return()
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "xicheck ${ARGS} differs from ${GOLDEN}\n"
    "=== expected ===\n${expected}=== actual ===\n${actual}")
endif()
