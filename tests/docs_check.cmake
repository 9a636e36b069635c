# docs-check: keep FORMATS.md (the normative on-disk format spec) in sync
# with the format versions the code implements.
#
# Run as: cmake -DREPO_ROOT=<repo> -P docs_check.cmake
# Fails when src/ckpt/format.h bumps kCkptFormatVersion (or src/ipc/frame.h
# bumps kFrameFormatVersion) without FORMATS.md documenting the same
# version, when FORMATS.md stops covering one of the artifact families
# it claims to spec, or when a BENCH_*.json report field is undocumented.

if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "docs_check: pass -DREPO_ROOT=<repository root>")
endif()

set(format_header "${REPO_ROOT}/src/ckpt/format.h")
set(formats_doc "${REPO_ROOT}/FORMATS.md")

if(NOT EXISTS "${format_header}")
  message(FATAL_ERROR "docs_check: ${format_header} not found")
endif()
if(NOT EXISTS "${formats_doc}")
  message(FATAL_ERROR "docs_check: ${formats_doc} not found — FORMATS.md is the "
                      "normative spec of every on-disk artifact and must exist")
endif()

# Extract the version constant from the header.
file(READ "${format_header}" header_text)
if(NOT header_text MATCHES "kCkptFormatVersion = ([0-9]+)")
  message(FATAL_ERROR "docs_check: kCkptFormatVersion not found in ${format_header}")
endif()
set(code_version "${CMAKE_MATCH_1}")

# FORMATS.md must state the same version, in the exact phrase the spec
# uses ("checkpoint format version N").
file(READ "${formats_doc}" doc_text)
if(NOT doc_text MATCHES "checkpoint format version ${code_version}")
  message(FATAL_ERROR
      "docs_check: src/ckpt/format.h implements checkpoint format version "
      "${code_version}, but FORMATS.md does not say \"checkpoint format version "
      "${code_version}\" — update the spec alongside the code")
endif()

# Same coupling for the coordinator <-> worker wire protocol: the frame
# header lives in src/ipc/frame.h and FORMATS.md must state the version
# it implements ("wire frame format version N").
set(frame_header "${REPO_ROOT}/src/ipc/frame.h")
if(NOT EXISTS "${frame_header}")
  message(FATAL_ERROR "docs_check: ${frame_header} not found")
endif()
file(READ "${frame_header}" frame_text)
if(NOT frame_text MATCHES "kFrameFormatVersion = ([0-9]+)")
  message(FATAL_ERROR "docs_check: kFrameFormatVersion not found in ${frame_header}")
endif()
set(frame_version "${CMAKE_MATCH_1}")
if(NOT doc_text MATCHES "wire frame format version ${frame_version}")
  message(FATAL_ERROR
      "docs_check: src/ipc/frame.h implements wire frame format version "
      "${frame_version}, but FORMATS.md does not say \"wire frame format "
      "version ${frame_version}\" — update the spec alongside the code")
endif()

# Every FrameType the wire protocol defines must appear by name in
# FORMATS.md (the Sec. 7.2 types table) — a frame type cannot be
# appended to src/ipc/frame.h without the spec documenting it.
if(NOT frame_text MATCHES "enum class FrameType[^{]*{([^}]*)}")
  message(FATAL_ERROR "docs_check: FrameType enum not found in ${frame_header}")
endif()
string(REGEX MATCHALL "([A-Za-z0-9_]+) = [0-9]+" frame_type_tokens "${CMAKE_MATCH_1}")
if(NOT frame_type_tokens)
  message(FATAL_ERROR "docs_check: FrameType enum is empty in ${frame_header}")
endif()
set(frame_types "")
foreach(token ${frame_type_tokens})
  string(REGEX REPLACE " = [0-9]+" "" token "${token}")
  list(APPEND frame_types "${token}")
  if(NOT doc_text MATCHES "${token}")
    message(FATAL_ERROR
        "docs_check: frame type \"${token}\" (FrameType in src/ipc/frame.h) is "
        "not mentioned in FORMATS.md — the Sec. 7.2 frame-type table must list "
        "every type by name")
  endif()
endforeach()
list(LENGTH frame_types frame_type_count)

# Every artifact family the repo writes must have a section in the spec.
foreach(family
    "ESCK"               # checkpoint container
    "ESFR"               # coordinator <-> worker wire frame
    "JSON"               # observability snapshot (metrics + spans + events)
    "JSONL"              # flight-recorder event stream
    "CSV")               # trace datasets
  if(NOT doc_text MATCHES "${family}")
    message(FATAL_ERROR
        "docs_check: FORMATS.md no longer mentions \"${family}\" — every on-disk "
        "artifact family must stay specified")
  endif()
endforeach()

# The GEMM backend selector: EXPERIMENTS.md must document exactly the
# mode strings src/nn/gemm.h accepts (kGemmModeNames), in the canonical
# "EDGESLICE_GEMM=<m1>|<m2>|..." phrase, so a renamed or added mode
# cannot land without its documentation.
set(gemm_header "${REPO_ROOT}/src/nn/gemm.h")
set(experiments_doc "${REPO_ROOT}/EXPERIMENTS.md")
if(NOT EXISTS "${gemm_header}")
  message(FATAL_ERROR "docs_check: ${gemm_header} not found")
endif()
if(NOT EXISTS "${experiments_doc}")
  message(FATAL_ERROR "docs_check: ${experiments_doc} not found")
endif()
file(READ "${gemm_header}" gemm_text)
if(NOT gemm_text MATCHES "kGemmModeNames\\[\\] = {([^}]*)}")
  message(FATAL_ERROR "docs_check: kGemmModeNames not found in ${gemm_header}")
endif()
string(REGEX MATCHALL "\"([a-z0-9]+)\"" gemm_mode_tokens "${CMAKE_MATCH_1}")
set(gemm_modes "")
foreach(token ${gemm_mode_tokens})
  string(REPLACE "\"" "" token "${token}")
  list(APPEND gemm_modes "${token}")
endforeach()
list(JOIN gemm_modes "|" gemm_mode_phrase)
# '|' is alternation in CMake regex; match the literal phrase.
string(REPLACE "|" "\\|" gemm_mode_pattern "${gemm_mode_phrase}")
file(READ "${experiments_doc}" experiments_text)
if(NOT experiments_text MATCHES "EDGESLICE_GEMM=${gemm_mode_pattern}")
  message(FATAL_ERROR
      "docs_check: src/nn/gemm.h accepts EDGESLICE_GEMM modes "
      "\"${gemm_mode_phrase}\", but EXPERIMENTS.md does not say "
      "\"EDGESLICE_GEMM=${gemm_mode_phrase}\" — update the docs alongside "
      "kGemmModeNames")
endif()

# Every BENCH_*.json report schema: each field a bench emits (its schema
# table, which BenchReport::write checks against the actual emission)
# must be documented as `field` in the named doc, so a field cannot be
# added, renamed, or dropped without the docs following. One entry per
# report: "<bench source>|<schema table>|<doc>".
set(report_summary "")
foreach(report
    "bench/city_scale.cpp|kCityBenchFields|EXPERIMENTS.md"
    "bench/serve_load.cpp|kServeBenchFields|FORMATS.md"
    "bench/fig10_training.cpp|kTrainingBenchFields|FORMATS.md")
  string(REPLACE "|" ";" report "${report}")
  list(GET report 0 report_source)
  list(GET report 1 report_table)
  list(GET report 2 report_doc)
  if(NOT EXISTS "${REPO_ROOT}/${report_source}")
    message(FATAL_ERROR "docs_check: ${REPO_ROOT}/${report_source} not found")
  endif()
  file(READ "${REPO_ROOT}/${report_source}" report_text)
  if(NOT report_text MATCHES "${report_table}\\[\\] = {([^}]*)}")
    message(FATAL_ERROR "docs_check: ${report_table} not found in ${report_source}")
  endif()
  string(REGEX MATCHALL "\"([a-z0-9_]+)\"" field_tokens "${CMAKE_MATCH_1}")
  if(NOT field_tokens)
    message(FATAL_ERROR "docs_check: ${report_table} is empty in ${report_source}")
  endif()
  file(READ "${REPO_ROOT}/${report_doc}" report_doc_text)
  foreach(token ${field_tokens})
    string(REPLACE "\"" "" token "${token}")
    if(NOT report_doc_text MATCHES "`${token}`")
      message(FATAL_ERROR
          "docs_check: report field \"${token}\" (${report_table} in "
          "${report_source}) is not documented in ${report_doc} — every "
          "emitted field must appear there as \\`${token}\\`")
    endif()
  endforeach()
  list(LENGTH field_tokens field_count)
  list(APPEND report_summary "${field_count} ${report_table}")
endforeach()
list(JOIN report_summary ", " report_summary)

message(STATUS "docs_check: FORMATS.md documents checkpoint format version "
               "${code_version}, wire frame format version ${frame_version}, "
               "all ${frame_type_count} frame types and all artifact "
               "families; EXPERIMENTS.md documents "
               "EDGESLICE_GEMM=${gemm_mode_phrase}; every report field is "
               "documented (${report_summary})")
