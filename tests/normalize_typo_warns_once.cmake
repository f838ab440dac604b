# Runs the quickstart with a misspelled HTD_OBS_NORMALIZE in a scratch
# working directory and requires exactly one warning line on stderr: the
# variable is parsed once, by the obs Registry, and the event journal takes
# the Registry's setting instead of parsing it again.
#
#   cmake -DQUICKSTART=<exe> -DWORK_DIR=<dir> -P normalize_typo_warns_once.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env HTD_OBS_NORMALIZE=yes "${QUICKSTART}"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "quickstart exited with ${result}:\n${err}")
endif()
string(REGEX MATCHALL "unrecognized HTD_OBS_NORMALIZE value 'yes'[^\n]*\n"
       warnings "${err}")
list(LENGTH warnings count)
if(NOT count EQUAL 1)
  message(FATAL_ERROR
          "expected exactly one HTD_OBS_NORMALIZE warning line, got ${count}:\n${err}")
endif()
