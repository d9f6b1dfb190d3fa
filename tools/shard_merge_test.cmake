# Registered ctests (see tools/CMakeLists.txt): run a campaign spec as
# two shards with different thread counts, merge them, run the same spec
# unsharded, and byte-compare the manifests and summaries — the
# distributed-provenance guarantee, exercised through the real CLI.
#
# Invoked as:
#   cmake -DTOOL=<emask-campaign> -DSPEC=<spec.ini> -DWORK=<scratch dir>
#         -P shard_merge_test.cmake
foreach(var TOOL SPEC WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shard_merge_test: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "shard_merge_test: '${ARGV}' exited ${status}")
  endif()
endfunction()

# Different --jobs per invocation on purpose: neither the partition nor the
# merged manifest may depend on thread count or scheduling.
run_step("${TOOL}" run "${SPEC}" --out=${WORK}/s0 --shard=0/2 --jobs=1 --quiet)
run_step("${TOOL}" run "${SPEC}" --out=${WORK}/s1 --shard=1/2 --jobs=2 --quiet)
run_step("${TOOL}" run "${SPEC}" --out=${WORK}/full --jobs=3 --quiet)
run_step("${TOOL}" merge ${WORK}/s0 ${WORK}/s1 --out=${WORK}/merged --quiet)

foreach(file manifest.json summary.csv)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK}/merged/${file}" "${WORK}/full/${file}"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "shard_merge_test: merged ${file} differs from the "
                        "unsharded run — byte-identity contract broken")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
message(STATUS "shard_merge_test: merged manifest byte-identical to the "
               "unsharded run")
