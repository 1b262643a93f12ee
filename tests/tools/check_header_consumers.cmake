# Fails when a header under src/ has no consumer: no file in src/, examples/,
# bench/ or perfbench/ includes it, other than the header's own .cpp. A module
# that only its own tests reach is dead code and should be deleted with them.
# Invoked by ctest as
#
#   cmake -DREPO_DIR=<source root> -P check_header_consumers.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED REPO_DIR)
  message(FATAL_ERROR "usage: cmake -DREPO_DIR=... -P check_header_consumers.cmake")
endif()

# Headers allowed to have no consumer yet, each with the reason.
set(exceptions
  # The metamorphic relations of the planned fuzz driver, which will consume it.
  src/sdf/transform.h
)

file(GLOB_RECURSE headers RELATIVE "${REPO_DIR}" "${REPO_DIR}/src/*.h")
file(GLOB_RECURSE sources RELATIVE "${REPO_DIR}"
     "${REPO_DIR}/src/*.h" "${REPO_DIR}/src/*.cpp"
     "${REPO_DIR}/examples/*.h" "${REPO_DIR}/examples/*.cpp"
     "${REPO_DIR}/bench/*.h" "${REPO_DIR}/bench/*.cpp"
     "${REPO_DIR}/perfbench/*.h" "${REPO_DIR}/perfbench/*.cpp")
list(LENGTH headers header_count)
if(header_count LESS 50)
  message(FATAL_ERROR "src/ unexpectedly small: ${header_count} headers")
endif()

# consumers_<header> lists every file that includes <header>.
foreach(source IN LISTS sources)
  file(STRINGS "${REPO_DIR}/${source}" includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"src/")
  foreach(line IN LISTS includes)
    if(line MATCHES "\"(src/[^\"]+)\"")
      list(APPEND "consumers_${CMAKE_MATCH_1}" "${source}")
    endif()
  endforeach()
endforeach()

set(orphans "")
foreach(header IN LISTS headers)
  string(REGEX REPLACE "\\.h$" ".cpp" own_source "${header}")
  set(consumers ${consumers_${header}})
  list(REMOVE_ITEM consumers "${own_source}")
  if(NOT consumers AND NOT header IN_LIST exceptions)
    list(APPEND orphans "${header}")
  endif()
endforeach()

if(orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR "headers with no consumer outside their own .cpp "
                      "(delete the module, or use it):\n  ${listing}")
endif()
message(STATUS "${header_count} src headers: each has a consumer or is an exception "
               "(${exceptions})")
