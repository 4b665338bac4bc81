# Configure, build and run one sanitizer smoke subset in a dedicated
# sub-build. Invoked by the `tsan_smoke` and `asan_smoke` ctests with
#   -DMODE=thread|address   SEGROUTE_SANITIZE for the sub-build
#   -DTARGET=<executable>   the test binary to build and run
#   -DSOURCE_DIR, -DBUILD_DIR, -DCXX_COMPILER
#   -DGTEST_FILTER=<filter> optional; empty runs every test in TARGET
# Any sanitizer report fails the run: ASan and TSan abort on their own,
# and UBSan is told to halt on its first finding.

foreach(var MODE TARGET SOURCE_DIR BUILD_DIR CXX_COMPILER)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sanitize_smoke: -D${var}= is required")
  endif()
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${BUILD_DIR}"
          -DCMAKE_CXX_COMPILER=${CXX_COMPILER}
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
          -DSEGROUTE_SANITIZE=${MODE}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TARGET}: configure failed (${rc})")
endif()

# An explicit job count: a bare --parallel lets make spawn unboundedly
# many sanitized compiles at once.
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
execute_process(
  COMMAND "${CMAKE_COMMAND}" --build "${BUILD_DIR}"
          --target ${TARGET} --parallel ${jobs}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TARGET}: build failed (${rc})")
endif()

set(filter_arg "")
if(GTEST_FILTER)
  set(filter_arg "--gtest_filter=${GTEST_FILTER}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env
          UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
          "${BUILD_DIR}/tests/${TARGET}" ${filter_arg}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${TARGET} failed (${rc}) under "
                      "SEGROUTE_SANITIZE=${MODE}: sanitizer report above")
endif()
