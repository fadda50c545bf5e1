# CTest helper: a malformed number on any numeric flag (or in OWL_JOBS)
# must be rejected with exit status 2 and a message naming the flag,
# not parsed leniently into 0 or a wrapped-around value.
#
# Variables: OWL_BIN.

function(expect_rejected flag)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env ${ARGN}
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    string(JOIN " " cmd ${ARGN})
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "`${cmd}` exited ${rc}, expected 2")
    endif()
    string(FIND "${err}" "${flag}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "`${cmd}` did not name ${flag}:\n${err}")
    endif()
endfunction()

expect_rejected(--jobs ${OWL_BIN} synth accumulator --jobs banana)
expect_rejected(--inprocess ${OWL_BIN} synth accumulator --inprocess abc)
expect_rejected(--budget ${OWL_BIN} synth accumulator --budget -3)
expect_rejected(--portfolio ${OWL_BIN} synth accumulator --portfolio x)
expect_rejected(--cycles ${OWL_BIN} lint accumulator --cycles 2k)
expect_rejected(OWL_JOBS OWL_JOBS=many ${OWL_BIN} synth accumulator)
expect_rejected(--queue-cap ${OWL_BIN} serve --batch none.json --queue-cap -1)
expect_rejected(--cache-mb ${OWL_BIN} serve --batch none.json --cache-mb x)
expect_rejected(--sessions ${OWL_BIN} serve --batch none.json --sessions +4)
expect_rejected(--seed ${OWL_BIN} fuzz --seed 99999999999999999999)
expect_rejected(--runs ${OWL_BIN} fuzz --runs 1.5)
