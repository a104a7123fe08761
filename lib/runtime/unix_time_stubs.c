/* Monotonic nanosecond clock for Unix_time.now_ns. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double gbc_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

value gbc_now_ns_byte(value unit)
{
  return caml_copy_double(gbc_now_ns(unit));
}
