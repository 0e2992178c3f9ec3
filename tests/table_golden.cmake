# Regenerates every paper table (the 11 bench_table* binaries plus
# bench_fig2_timeline) at CPS_INSNS=100000 and fails unless each
# stdout is byte-identical to its committed copy in tests/golden/.
# The determinism legs (table_determinism.cmake) only diff run modes
# against each other; this pins the reproduced numbers themselves, so
# a change that shifts every mode the same way still fails here.
#
# A change that moves a simulated number must update the golden file
# in the same commit and explain the change in CHANGES.md. A failing
# run leaves each table's new output beside the test, ready to copy
# over its golden file.
#
# Expects: BENCH_DIR (directory holding the bench binaries),
#          GOLDEN_DIR (tests/golden), WORK_DIR (scratch directory).

if (NOT BENCH_DIR OR NOT GOLDEN_DIR OR NOT WORK_DIR)
    message(FATAL_ERROR "BENCH_DIR, GOLDEN_DIR and WORK_DIR are required")
endif()

set(tables
    bench_table1_benchmarks
    bench_table3_ratio
    bench_table4_composition
    bench_table5_ipc
    bench_table6_indexcache
    bench_table7_indexcache_speedup
    bench_table8_decoders
    bench_table9_combined
    bench_table10_icache
    bench_table11_buswidth
    bench_table12_memlat
    bench_fig2_timeline)

# A private artifact cache, emptied first: the run is cold and never
# reads artifacts another test or a user run left behind.
set(cache_dir "${WORK_DIR}/table_golden_cache")
file(REMOVE_RECURSE ${cache_dir})
set(ENV{CPS_INSNS} "100000")
set(ENV{CPS_CACHE_DIR} "${cache_dir}")

set(failed "")
foreach(table IN LISTS tables)
    set(out "${WORK_DIR}/table_golden_${table}.txt")
    set(golden "${GOLDEN_DIR}/${table}.txt")
    execute_process(COMMAND ${BENCH_DIR}/${table}
        OUTPUT_FILE ${out}
        RESULT_VARIABLE rc)
    if (NOT rc EQUAL 0)
        message(FATAL_ERROR "${table} failed (rc=${rc})")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${golden} ${out}
        RESULT_VARIABLE diff_rc)
    if (NOT diff_rc EQUAL 0)
        list(APPEND failed ${table})
    endif()
endforeach()

if (failed)
    message(FATAL_ERROR "table output differs from tests/golden/ for: "
        "${failed} (new output in ${WORK_DIR}/table_golden_<binary>.txt)")
endif()
