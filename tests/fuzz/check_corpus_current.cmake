# Copyright (c) hdc authors. Apache-2.0 license.
#
# Fails unless a harness's `--generate` writes exactly the committed seed
# corpus: the same file names with the same bytes. The crawl-state seeds
# include frontier logs, so this also pins the round-record bytes.
#
#   cmake -DFUZZER=<replay driver> -DCORPUS=<committed dir>
#         -DOUT=<scratch dir> -P check_corpus_current.cmake

file(REMOVE_RECURSE "${OUT}")
execute_process(COMMAND "${FUZZER}" --generate "${OUT}"
  RESULT_VARIABLE generate_status OUTPUT_QUIET)
if(NOT generate_status EQUAL 0)
  message(FATAL_ERROR "${FUZZER} --generate exited with ${generate_status}")
endif()

file(GLOB generated RELATIVE "${OUT}" "${OUT}/*")
file(GLOB committed RELATIVE "${CORPUS}" "${CORPUS}/*")
list(SORT generated)
list(SORT committed)
if(NOT generated STREQUAL committed)
  message(FATAL_ERROR "seed names differ\n  generated: ${generated}\n"
                      "  committed: ${committed}")
endif()
foreach(seed IN LISTS committed)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${OUT}/${seed}" "${CORPUS}/${seed}" RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${seed} differs from the committed seed; "
                        "rerun --generate if the change is intended")
  endif()
endforeach()
