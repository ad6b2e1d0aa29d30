# Runs one single-layer `maestro analyze --format json` and fails
# unless it exits 0 and prints the layer's runtime. ctest's own
# PASS_REGULAR_EXPRESSION would ignore the exit status.
#
#   cmake -DMAESTRO=build/tools/maestro -P tools/check_analyze_json.cmake
execute_process(
    COMMAND ${MAESTRO} analyze --model vgg16 --layer CONV2
            --dataflow KC-P --format json
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "maestro analyze exited ${status}: ${err}")
endif()
if(NOT out MATCHES "\"layer\":\"CONV2\",\"runtime\":[0-9]+,")
    message(FATAL_ERROR "unexpected maestro analyze output: ${out}")
endif()
