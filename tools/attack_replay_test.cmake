# Registered ctest (see tools/CMakeLists.txt): a noisy emask-capture file
# attacked with emask-attack --from, and the same attack on the live card,
# must print the same verdict line.
#
#   cmake -DCAPTURE=<emask-capture> -DATTACK=<emask-attack> -DWORK=<dir>
#         -P attack_replay_test.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(settings --traces=120 --noise=30)
execute_process(COMMAND "${CAPTURE}" --out=${WORK}/traces.emts ${settings}
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "attack_replay_test: emask-capture exited ${status}")
endif()

# Exit 0 (recovered) and 3 (not recovered) are both verdicts.
function(verdict out)
  execute_process(COMMAND "${ATTACK}" --attack=cpa ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE stdout)
  string(REGEX MATCH "[^\n]*for guess[^\n]*" line "${stdout}")
  if(NOT (status EQUAL 0 OR status EQUAL 3) OR line STREQUAL "")
    message(FATAL_ERROR "attack_replay_test: emask-attack ${ARGN} exited "
                        "${status}:\n${stdout}")
  endif()
  set(${out} "${line}" PARENT_SCOPE)
endfunction()

verdict(replayed --from=${WORK}/traces.emts)
verdict(live ${settings})
if(NOT replayed STREQUAL live)
  message(FATAL_ERROR "attack_replay_test: live and replayed attacks "
                      "disagree:\n  live:     ${live}\n  replayed: ${replayed}")
endif()
file(REMOVE_RECURSE "${WORK}")
message(STATUS "attack_replay_test: ${live}")
