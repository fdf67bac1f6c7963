# Runs COMMAND with the space-separated ARGS and passes only when it exits
# with EXPECT_EXIT and its stderr matches EXPECT_ERR (a regular expression).
#   cmake -DCOMMAND=<exe> "-DARGS=--flag value" -DEXPECT_EXIT=2
#         "-DEXPECT_ERR=^error: " -P expect_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${COMMAND}" ${args}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status ${code}, expected ${EXPECT_EXIT}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERR}':\n${err}")
endif()
