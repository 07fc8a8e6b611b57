/* A monotonic clock with nanosecond resolution for the benchmark's spans:
   Unix.gettimeofday only resolves microseconds and can jump. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value perfbench_monotonic_seconds(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
