# Runs `syncircuit_cli gen 2 60 1` at --threads=1 and --threads=3 in
# separate working directories and fails unless both out/ directories hold
# the same files with the same bytes.
#
#   cmake -DCLI=<syncircuit_cli> -DWORK=<scratch dir> -P check_gen_threads.cmake
file(REMOVE_RECURSE "${WORK}")
foreach(threads 1 3)
  set(dir "${WORK}/threads_${threads}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${CLI}" gen 2 60 1 --threads=${threads}
                  WORKING_DIRECTORY "${dir}" RESULT_VARIABLE status
                  OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "gen --threads=${threads} exited with ${status}")
  endif()
  file(GLOB files_${threads} RELATIVE "${dir}/out" "${dir}/out/*")
  list(SORT files_${threads})
endforeach()
list(LENGTH files_1 count)
if(NOT count EQUAL 2 OR NOT files_1 STREQUAL files_3)
  message(FATAL_ERROR "out/ differs: [${files_1}] vs [${files_3}]")
endif()
foreach(name IN LISTS files_1)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/threads_1/out/${name}"
                          "${WORK}/threads_3/out/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name} differs between --threads=1 and --threads=3")
  endif()
endforeach()
