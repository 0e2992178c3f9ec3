# Lists every environment knob the program reads — each quoted "CPS_…"
# name in src/, bench/ and examples/ — prints the count, and fails
# unless README.md mentions every one of them. A knob nobody can find
# in the README is a knob nobody can set on purpose.
#
# Expects: SOURCE_DIR (the repository root).
#
#   cmake -DSOURCE_DIR=. -P tests/knob_inventory.cmake

if (NOT SOURCE_DIR)
    message(FATAL_ERROR "SOURCE_DIR is required")
endif()

file(GLOB_RECURSE sources
    ${SOURCE_DIR}/src/*.cc ${SOURCE_DIR}/src/*.hh
    ${SOURCE_DIR}/bench/*.cc ${SOURCE_DIR}/bench/*.hh
    ${SOURCE_DIR}/examples/*.cpp ${SOURCE_DIR}/examples/*.hh)

set(knobs)
foreach(src ${sources})
    file(READ ${src} text)
    string(REGEX MATCHALL "\"CPS_[A-Z0-9_]+\"" found "${text}")
    foreach(quoted ${found})
        string(REPLACE "\"" "" name ${quoted})
        list(APPEND knobs ${name})
    endforeach()
endforeach()
list(REMOVE_DUPLICATES knobs)
list(SORT knobs)
list(LENGTH knobs count)

file(READ ${SOURCE_DIR}/README.md readme)
set(undocumented)
foreach(name ${knobs})
    # Whole-name match: CPS_TEST_EXIT_AFTER_CELLS must not be satisfied
    # by a mention of some longer name that merely contains it.
    if (NOT readme MATCHES "(^|[^A-Z0-9_])${name}([^A-Z0-9_]|$)")
        list(APPEND undocumented ${name})
    endif()
endforeach()

string(REPLACE ";" "\n  " listing "${knobs}")
message("knob_inventory: ${count} knobs\n  ${listing}")
if (undocumented)
    string(REPLACE ";" ", " missing "${undocumented}")
    message(FATAL_ERROR "knob_inventory: not in README.md: ${missing}")
endif()
