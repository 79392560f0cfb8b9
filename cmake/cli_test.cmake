# CLI flag-handling contract, run via ctest:
#   cmake -DCLI=<path-to-scpm_cli> [-DSERVE_CLI=<path-to-scpm_serve_cli>] \
#         -P cli_test.cmake
#
# Unknown flags, flags missing their value, and missing positionals must
# all exit non-zero (2) with usage text on stderr — never be silently
# ignored. Flag parsing happens before any file IO, so the positional
# paths need not exist. `--help` must exit 0 and print the flag
# reference on stdout (docs/CLI.md is diffed against it by the
# docs_drift gate).

if(NOT DEFINED CLI)
  message(FATAL_ERROR "pass -DCLI=<path to scpm_cli>")
endif()

function(expect_usage_error binary label)
  execute_process(
    COMMAND ${binary} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${code}\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${label}: stderr lacks usage text:\n${err}")
  endif()
endfunction()

# A malformed numeric (or enumerated) flag value is a usage error whose
# message names the flag, caught while the flags are parsed: no file is
# read and no thread is started. Extra arguments go before the flag.
function(expect_bad_value binary flag value)
  execute_process(
    COMMAND ${binary} edges.txt attrs.txt ${ARGN} ${flag} ${value}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR
            "${flag} ${value}: expected exit 2, got ${code}\n${err}")
  endif()
  if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "${flag} ${value}: stderr lacks usage text:\n${err}")
  endif()
  string(FIND "${err}" "${flag} expects" malformed)
  string(FIND "${err}" "unknown ${flag}: ${value}" unknown_word)
  if(malformed EQUAL -1 AND unknown_word EQUAL -1)
    message(FATAL_ERROR
            "${flag} ${value}: error does not name the flag:\n${err}")
  endif()
endfunction()

function(expect_help binary label)
  execute_process(
    COMMAND ${binary} --help
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${label}: --help expected exit 0, got ${code}")
  endif()
  if(NOT out MATCHES "usage:")
    message(FATAL_ERROR "${label}: --help stdout lacks usage text:\n${out}")
  endif()
  if(NOT out MATCHES "Exit codes:")
    message(FATAL_ERROR "${label}: --help lacks the exit-code table:\n${out}")
  endif()
endfunction()

expect_usage_error(${CLI} "no arguments")
expect_usage_error(${CLI} "unknown flag" edges.txt attrs.txt --bogus 1)
execute_process(
  COMMAND ${CLI} edges.txt attrs.txt --bogus 1
  RESULT_VARIABLE code
  ERROR_VARIABLE err)
if(NOT err MATCHES "unknown flag: --bogus")
  message(FATAL_ERROR "unknown flag not named in the error:\n${err}")
endif()
expect_usage_error(${CLI} "flag missing value" edges.txt attrs.txt --gamma)
expect_usage_error(${CLI} "bad sink value" edges.txt attrs.txt --sink csv)
expect_usage_error(${CLI} "bad scope value" edges.txt attrs.txt
                   --scope everything)
expect_help(${CLI} "scpm_cli")
# One malformed value per numeric flag: junk, trailing text, a negative
# number (atoll used to wrap it to ~2^64), an overflow, a non-finite
# real; and an unknown --order word (it used to mean dfs).
foreach(case IN ITEMS
    "--gamma;0.5x" "--min-size;4294967296" "--sigma-min;-5"
    "--eps-min;abc" "--delta-min;nan" "--top-k;5k" "--order;xyz"
    "--threads;-1" "--intra-min;1e3" "--intra-depth;-12" "--hybrid;yes"
    "--top-n;+" "--deadline-ms;-100" "--max-evals;18446744073709551616"
    "--max-patterns;1.5" "--checkpoint-interval-ms;10ms")
  list(GET case 0 flag)
  list(GET case 1 value)
  expect_bad_value(${CLI} ${flag} ${value})
endforeach()
# --help wins no matter where it appears.
execute_process(
  COMMAND ${CLI} edges.txt attrs.txt --help
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "trailing --help: expected exit 0, got ${code}")
endif()

# A v1 text checkpoint (the encoding before binary v2) is input the
# CLI no longer reads: --resume must exit 1 with a typed
# invalid-argument, never abort.
set(v1_dir ${CMAKE_CURRENT_BINARY_DIR}/cli_test_v1)
file(MAKE_DIRECTORY ${v1_dir})
file(WRITE ${v1_dir}/edges.txt "0 1\n1 2\n0 2\n")
file(WRITE ${v1_dir}/attrs.txt "0 x\n1 x\n2 x\n")
file(WRITE ${v1_dir}/v1.ckpt "scpm-checkpoint 1\ngraph 3 1 3\noptions 1\n"
     "phase tree\ndone-roots 0\nroot-batches 0\nclasses 0\nexpansions 0\n"
     "end\n")
execute_process(
  COMMAND ${CLI} ${v1_dir}/edges.txt ${v1_dir}/attrs.txt
          --resume ${v1_dir}/v1.ckpt
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 1 OR NOT err MATCHES "invalid-argument: not a binary")
  message(FATAL_ERROR "v1 text --resume: expected exit 1 with "
                      "invalid-argument, got ${code}:\n${err}")
endif()
# Reached only when the case passed; a failure keeps the directory.
file(REMOVE_RECURSE ${v1_dir})

if(DEFINED SERVE_CLI)
  expect_usage_error(${SERVE_CLI} "serve: no arguments")
  expect_usage_error(${SERVE_CLI} "serve: unknown flag" edges.txt attrs.txt
                     --bogus 1)
  expect_usage_error(${SERVE_CLI} "serve: missing --socket" edges.txt
                     attrs.txt --threads 2)
  expect_usage_error(${SERVE_CLI} "serve: flag missing value" edges.txt
                     attrs.txt --socket)
  expect_help(${SERVE_CLI} "scpm_serve_cli")
  # Negative counts, junk, and sizes past their cap: --threads,
  # --max-concurrent and --memo-shards above 1,024 (the num_threads cap
  # of ScpmOptions::Validate), and a --memo-mb whose byte count
  # (MiB << 20) would overflow.
  foreach(case IN ITEMS
      "--threads;-1" "--threads;1025" "--max-concurrent;-1"
      "--max-concurrent;100000" "--queue-depth;lots" "--memo-mb;-64"
      "--memo-mb;17592186044416" "--memo-shards;-1" "--memo-shards;4096"
      "--slice-ms;5.5" "--slice-evals;-1" "--default-deadline-ms;1s"
      "--checkpoint-interval-ms;-1000")
    list(GET case 0 flag)
    list(GET case 1 value)
    expect_bad_value(${SERVE_CLI} ${flag} ${value}
                     --socket /tmp/scpm-cli-test.sock)
  endforeach()
  # An uncreatable --state-dir must fail fast as a usage error, before
  # the graph loads or the socket binds (/dev/null can't parent a dir).
  expect_usage_error(${SERVE_CLI} "serve: uncreatable state dir" edges.txt
                     attrs.txt --socket /tmp/scpm-cli-test.sock
                     --state-dir /dev/null/state)
endif()

message(STATUS "cli flag contract ok")
