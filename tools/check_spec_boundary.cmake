# Spec boundary check: no src/ module archive may define a symbol that
# belongs to the test-only executable specs in spec/ (openspace_spec).
#
# Usage (the `spec_boundary` ctest runs it over every src/ module):
#   cmake -DNM=<nm> "-DARCHIVES=<a.a>|<b.a>|..." -P tools/check_spec_boundary.cmake
#
# Runs `nm -C --defined-only` over each archive and fails on any defined,
# demangled symbol naming a spec-only entity:
#   openspace::legacy::   hash-map Dijkstra / Yen, brute coverage estimators
#   EventQueue, FlowGenerator, ForwardingEngine   the legacy traffic stack
#   referenceSnapshot     the topology builder's reference link loops
#   FootprintIndex::      the brute footprint index (FootprintIndex2 is the
#                         shipped one and does not match)
# Undefined references are not reported: only a definition would mean the
# spec code was built into the shipped library.
cmake_minimum_required(VERSION 3.16)

if(NOT NM)
  message(FATAL_ERROR "check_spec_boundary: NM (the nm binary) is not set")
endif()
if(NOT ARCHIVES)
  message(FATAL_ERROR "check_spec_boundary: ARCHIVES is empty")
endif()
string(REPLACE "|" ";" archives "${ARCHIVES}")

# nm prints "<address> <type> <symbol>", so a spec name is always preceded
# by some character; the class pattern keeps FootprintIndex:: from matching
# inside a longer identifier.
set(forbidden
  "openspace::legacy::"
  "EventQueue"
  "FlowGenerator"
  "ForwardingEngine"
  "referenceSnapshot"
  "[^A-Za-z0-9_]FootprintIndex::")

set(violations 0)
list(LENGTH archives archiveCount)
foreach(archive IN LISTS archives)
  if(NOT EXISTS "${archive}")
    message(FATAL_ERROR "check_spec_boundary: missing archive ${archive}")
  endif()
  execute_process(
    COMMAND "${NM}" -C --defined-only "${archive}"
    OUTPUT_VARIABLE symbols
    ERROR_VARIABLE nmErrors
    RESULT_VARIABLE nmResult)
  if(NOT nmResult EQUAL 0)
    message(FATAL_ERROR
      "check_spec_boundary: ${NM} failed on ${archive}: ${nmErrors}")
  endif()
  string(REPLACE "\n" ";" lines "${symbols}")
  foreach(line IN LISTS lines)
    foreach(pattern IN LISTS forbidden)
      if(line MATCHES "${pattern}")
        get_filename_component(name "${archive}" NAME)
        message(SEND_ERROR "${name}: spec symbol (${pattern}): ${line}")
        math(EXPR violations "${violations} + 1")
        break()
      endif()
    endforeach()
  endforeach()
endforeach()

if(violations GREATER 0)
  message(FATAL_ERROR
    "check_spec_boundary: ${violations} spec symbol(s) defined in src/ "
    "libraries; move that code to spec/ (openspace_spec)")
endif()
message(STATUS
  "check_spec_boundary: ${archiveCount} src/ archives, no spec symbols")
