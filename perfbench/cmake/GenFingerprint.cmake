# src/CMakeLists.txt runs ${CMAKE_SOURCE_DIR}/cmake/GenFingerprint.cmake,
# and this package is the top-level source dir when the benchmark
# builds the simulator libraries. Forward to the repository's script so
# the benchmark binary carries the same fingerprint as every other
# build of these sources.
include("${CMAKE_CURRENT_LIST_DIR}/../../cmake/GenFingerprint.cmake")
