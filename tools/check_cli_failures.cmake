# CTest helper: the CLI's failure paths exit with the right status and
# say what failed on stderr.
#
#   CASE=empty_spec   synth/control/verify (also --mono) on FIXTURE, a
#                     bundle whose spec has no instructions: exit 2,
#                     and the message names the file.
#   CASE=mono_timeout `owl synth rv32i --mono --budget 1` runs out of
#                     budget: exit 1, and the message names no
#                     instruction (the joint query has none to blame).
#
# Variables: OWL_BIN, CASE, FIXTURE (empty_spec only).

function(expect_failure want_rc want_text)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    string(JOIN " " cmd ${ARGN})
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR "`${cmd}` exited ${rc}, expected ${want_rc}:\n${err}")
    endif()
    string(FIND "${err}" "${want_text}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "`${cmd}` did not print \"${want_text}\":\n${err}")
    endif()
endfunction()

if(CASE STREQUAL "empty_spec")
    foreach(cmd synth control verify)
        expect_failure(2 "${FIXTURE}: spec has no instructions"
            ${OWL_BIN} ${cmd} ${FIXTURE})
        expect_failure(2 "${FIXTURE}: spec has no instructions"
            ${OWL_BIN} ${cmd} ${FIXTURE} --mono)
    endforeach()
elseif(CASE STREQUAL "mono_timeout")
    expect_failure(1 "[owl] synthesis failed: timeout\n"
        ${OWL_BIN} synth rv32i --mono --budget 1)
else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
