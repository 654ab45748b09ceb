# Runs gdse_figures and checks its exit status and the JSON files it wrote.
#
#   cmake -DFIGURES=<gdse_figures> "-DARGS=<arg;arg...>" -DEXPECT=<status>
#         [-DOUT=<dir> "-DFILES=<name;name...>"] -P RunFigures.cmake
#
# OUT is emptied first, so every file in FILES must come from this run.

if(DEFINED OUT)
  file(REMOVE_RECURSE ${OUT})
endif()
execute_process(COMMAND ${FIGURES} ${ARGS} RESULT_VARIABLE RC)
if(NOT RC STREQUAL EXPECT)
  message(FATAL_ERROR "gdse_figures ${ARGS}: exit status ${RC}, "
                      "expected ${EXPECT}")
endif()
foreach(F ${FILES})
  if(NOT EXISTS ${OUT}/${F})
    message(FATAL_ERROR "gdse_figures ${ARGS} did not write ${OUT}/${F}")
  endif()
endforeach()
