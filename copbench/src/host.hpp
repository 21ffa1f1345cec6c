/**
 * @file
 * Host record printed with every benchmark run: CPU count, compiler,
 * build type and the score of a fixed calibration kernel, so numbers
 * measured on two hosts can be related. Recorded, not a metric.
 */

#ifndef COPBENCH_HOST_HPP
#define COPBENCH_HOST_HPP

#include <string>

namespace copbench {

/**
 * The host line's JSON object: nproc, compiler, build type and the
 * calibration score in million 64-bit words per second. The kernel
 * computes SECDED-style syndromes (eight parity checks per word) over a
 * fixed 256-block set, best of several passes. It lives in the
 * benchmark, not in the simulator, so a change to the simulator's own
 * ECC code cannot move it.
 */
std::string hostRecordJson();

} // namespace copbench

#endif // COPBENCH_HOST_HPP
