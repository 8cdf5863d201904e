# Drives the built hpccsim binary; ctest runs one case per invocation:
#
#   cmake -DHPCCSIM=<hpccsim> -DSOURCE_DIR=<repo> -DWORK_DIR=<scratch dir>
#         -DCASE=<case> [-DSCENARIO=<file>] -P tests/cli/cli_test.cmake
#
# Cases:
#   star_incast_rejected      flag mode goes through the scenario parser, so
#   dumbbell_too_small        shapes it rejects exit 1 with its message
#   file_with_flag_rejected   FILE plus an experiment flag exits 2, naming it
#   bad_number_rejected       a malformed integer, unsigned or floating-point
#                             flag value exits 2, naming the flag and text
#   flags_match_star          a flag-mode run and the committed fixture
#   flags_match_defaults      document write byte-identical CSVs and dump the
#                             same canonical scenario (pins flag -> key)
#   scenario_check            SCENARIO passes --check --quiet with exit 0,
#                             and its CSV matches the SCENARIO's run golden
#   run_golden                SCENARIO --quiet writes the CSV committed as
#                             tests/run_golden/<name>.csv, byte for byte
#   dump_fixed_point          SCENARIO --dump > a.json, a.json --dump >
#                             b.json, and a.json == b.json byte for byte
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs hpccsim with ARGN in WORK_DIR; sets rc/out/err in the caller's scope.
function(run_hpccsim)
  execute_process(COMMAND "${HPCCSIM}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE stdout
                  ERROR_VARIABLE stderr)
  string(REPLACE ";" " " cmd "${ARGN}")
  set(cmd "${cmd}" PARENT_SCOPE)
  set(rc "${result}" PARENT_SCOPE)
  set(out "${stdout}" PARENT_SCOPE)
  set(err "${stderr}" PARENT_SCOPE)
endfunction()

# Expects hpccsim ARGN to exit with `code` and print `message` on stderr.
function(expect_exit code message)
  run_hpccsim(${ARGN})
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "hpccsim ${cmd}: exit ${rc}, want ${code}\n${err}")
  endif()
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "hpccsim ${cmd}: stderr lacks \"${message}\":\n${err}")
  endif()
endfunction()

# Expects hpccsim ARGN to exit 0; stdout lands in `out`.
function(expect_ok)
  run_hpccsim(${ARGN})
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "hpccsim ${cmd}: exit ${rc}\n${out}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# Runs the flags (ARGN) and `fixture` side by side: same CSV bytes, same
# canonical --dump.
function(expect_same_as_fixture fixture)
  expect_ok(${ARGN} --quiet --out=flags.csv)
  expect_ok("${fixture}" --quiet --out=fixture.csv)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/flags.csv" "${WORK_DIR}/fixture.csv"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "flags ${ARGN} and ${fixture} wrote different CSVs")
  endif()
  expect_ok(${ARGN} --dump)
  set(flags_dump "${out}")
  expect_ok("${fixture}" --dump)
  if(NOT flags_dump STREQUAL out)
    message(FATAL_ERROR "flags ${ARGN} and ${fixture} dump different "
                        "scenarios:\n${flags_dump}\nvs\n${out}")
  endif()
endfunction()

# Compares `csv` (in WORK_DIR) with SCENARIO's committed run golden.
function(expect_run_golden csv)
  get_filename_component(name "${SCENARIO}" NAME_WE)
  set(golden "${SOURCE_DIR}/tests/run_golden/${name}.csv")
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/${csv}" "${golden}"
                  RESULT_VARIABLE differ)
  if(differ)
    file(READ "${WORK_DIR}/${csv}" got)
    message(FATAL_ERROR "${SCENARIO}: CSV differs from ${golden}:\n${got}")
  endif()
endfunction()

set(fixtures "${SOURCE_DIR}/tests/cli")
if(CASE STREQUAL "star_incast_rejected")
  expect_exit(1 "workload.incast.fan_in 8 needs more hosts than the topology's 5"
              --topo=star --hosts=5 --incast=8)
elseif(CASE STREQUAL "dumbbell_too_small")
  expect_exit(1 "\"hosts_per_side\" in topology must be a positive integer"
              --topo=dumbbell --hosts=1)
elseif(CASE STREQUAL "file_with_flag_rejected")
  expect_exit(2 "error: --scheme" "${fixtures}/flag_mode_star.json"
              --scheme=dcqcn)
elseif(CASE STREQUAL "bad_number_rejected")
  expect_exit(2 "error: --jobs=abc: expected an integer" --jobs=abc)
  expect_exit(2 "error: --hosts=4x: expected an integer" --hosts=4x)
  expect_exit(2 "error: --seed=-1: expected an unsigned integer" --seed=-1)
  expect_exit(2 "error: --seed=xyz: expected an unsigned integer" --seed=xyz)
  expect_exit(2 "error: --eta=1.5x: expected a finite number" --eta=1.5x)
  expect_exit(2 "error: --load=: expected a finite number" --load=)
  expect_exit(2 "error: --load=inf: expected a finite number" --load=inf)
elseif(CASE STREQUAL "flags_match_star")
  expect_same_as_fixture("${fixtures}/flag_mode_star.json"
    --scheme=hpcc --topo=star --hosts=9 --trace=fbhadoop --load=0.4
    --duration-ms=1 --incast=4 --incast-bytes=100000 --seed=7 --lossy --irn
    --eta=0.9 --wai=200)
elseif(CASE STREQUAL "flags_match_defaults")
  expect_same_as_fixture("${fixtures}/flag_mode_defaults.json")
elseif(CASE STREQUAL "scenario_check")
  expect_ok("${SCENARIO}" --check --quiet --out=check.csv)
  expect_run_golden(check.csv)
elseif(CASE STREQUAL "run_golden")
  expect_ok("${SCENARIO}" --quiet --out=run.csv)
  expect_run_golden(run.csv)
elseif(CASE STREQUAL "dump_fixed_point")
  set(input "${SCENARIO}")
  foreach(dump a.json b.json)
    execute_process(COMMAND "${HPCCSIM}" "${input}" --dump
                    WORKING_DIRECTORY "${WORK_DIR}"
                    OUTPUT_FILE "${WORK_DIR}/${dump}"
                    RESULT_VARIABLE rc
                    ERROR_VARIABLE err)
    if(NOT rc STREQUAL "0")
      message(FATAL_ERROR "hpccsim ${input} --dump: exit ${rc}\n${err}")
    endif()
    set(input "${WORK_DIR}/${dump}")
  endforeach()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/a.json" "${WORK_DIR}/b.json"
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${SCENARIO}: the dump of its --dump differs")
  endif()
else()
  message(FATAL_ERROR "unknown CASE \"${CASE}\"")
endif()
