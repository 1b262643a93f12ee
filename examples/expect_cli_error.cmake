# Runs one CLI command and checks that it fails the documented way: its exit
# code is EXPECT_CODE and its stderr contains the line EXPECT_STDERR (a literal
# string, not a regex). Invoked by ctest as
#
#   cmake -DEXPECT_CODE=<n> -DEXPECT_STDERR=<line> -P expect_cli_error.cmake -- <command...>

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED EXPECT_CODE OR NOT DEFINED EXPECT_STDERR)
  message(FATAL_ERROR "usage: cmake -DEXPECT_CODE=... -DEXPECT_STDERR=... "
                      "-P expect_cli_error.cmake -- <command...>")
endif()

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE code ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR "exit code ${code}, want ${EXPECT_CODE}; stderr:\n${err}")
endif()
string(FIND "\n${err}" "\n${EXPECT_STDERR}\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks the line '${EXPECT_STDERR}'; stderr:\n${err}")
endif()
message(STATUS "exit ${code} with '${EXPECT_STDERR}'")
