# Regenerates the golden `relacc pipeline --json` reports in this
# directory and compares them byte for byte, at --threads 1 and 4.
# Each report is the pipeline over `relacc gen --profile <p> --flat
# --entities 12 --seed 1`, resolved on `key`.
#
#   cmake -DRELACC=build/relacc -DGOLDEN_DIR=tests/golden \
#         -DWORK_DIR=/tmp/golden -P tests/golden/check_pipeline_reports.cmake
#
# CTest registers it as GoldenPipelineReports.

foreach(var RELACC GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_pipeline_reports: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(profile med cfp)
  set(spec "${WORK_DIR}/${profile}_flat12_seed1_spec.json")
  set(golden "${GOLDEN_DIR}/pipeline_${profile}_flat12_seed1.json")
  execute_process(
    COMMAND "${RELACC}" gen --profile ${profile} --flat --entities 12
            --seed 1 --out "${spec}"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "relacc gen --profile ${profile} failed: ${rc}")
  endif()
  foreach(threads 1 4)
    set(report "${WORK_DIR}/pipeline_${profile}_threads${threads}.json")
    execute_process(
      COMMAND "${RELACC}" pipeline "${spec}" --key key --threads ${threads}
              --json
      OUTPUT_FILE "${report}" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "relacc pipeline (${profile}, --threads "
                          "${threads}) failed: ${rc}")
    endif()
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files "${report}" "${golden}"
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${report} differs from ${golden}")
    endif()
    message(STATUS "${profile} --threads ${threads}: identical to golden")
  endforeach()
endforeach()
