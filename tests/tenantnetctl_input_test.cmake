# Pipes refused lines into tenantnetctl, one session each, after a setup
# that launches two instances with EIPs and requests a SIP. Each session
# must end with an `error:` line and exit status 1: no abort on a bad
# number, no port silently wrapped, no NaN weight or quota taken.
#
#   cmake -DTENANTNETCTL=<path to tenantnetctl> -P tenantnetctl_input_test.cmake

set(setup "world test\nlaunch 0\nlaunch 0\neip 1\neip 2\nsip\n")

function(run_session input out_var rc_var)
  file(WRITE "${CMAKE_CURRENT_BINARY_DIR}/tenantnetctl_input.txt" "${input}")
  execute_process(
      COMMAND "${TENANTNETCTL}"
      INPUT_FILE "${CMAKE_CURRENT_BINARY_DIR}/tenantnetctl_input.txt"
      OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  set(${out_var} "${out}${err}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
endfunction()

# The setup alone succeeds and prints the two EIPs, then the SIP.
run_session("${setup}" out rc)
string(REGEX MATCHALL "[0-9]+\\.[0-9]+\\.[0-9]+\\.[0-9]+" addrs "${out}")
list(LENGTH addrs n)
if(NOT rc EQUAL 0 OR NOT n EQUAL 3)
  message(FATAL_ERROR "setup failed (exit ${rc}):\n${out}")
endif()
list(GET addrs 0 eip1)
list(GET addrs 1 eip2)
list(GET addrs 2 sip)

# Control: the same commands with good numbers succeed.
run_session("${setup}bind ${eip2} ${sip} 2\nqos 0 1e9\neval 1 ${eip2} 443\n"
            out rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "control session failed (exit ${rc}):\n${out}")
endif()

foreach(line
    "launch abc"
    "launch 0 abc"
    "eip 1x"
    "sip -1"
    "eval 1 ${eip2} abc"
    "eval 1 ${eip2} 70000"
    "external 1.2.3.4 ${eip2} 70000"
    "permit ${eip2} ${eip1} 443x"
    "qos abc 1e9"
    "qos 0 nan"
    "bind ${eip2} ${sip} nan"
    "bind ${eip2} ${sip} inf")
  run_session("${setup}${line}\n" out rc)
  if(NOT rc EQUAL 1 OR NOT out MATCHES "\nerror: [^\n]*\n$")
    message(FATAL_ERROR "`${line}` was not refused (exit ${rc}):\n${out}")
  endif()
endforeach()
