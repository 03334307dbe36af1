#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Samples::add(double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  v_.push_back(v);
}

std::size_t Samples::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return v_.size();
}

double Samples::sum() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double s = 0.0;
  for (double x : v_) s += x;
  return s;
}

double Samples::quantile(double q) const {
  std::vector<double> v = values();
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> Samples::values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return v_;
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double acc = 0.0;
  for (double x : v) acc += std::log(x);
  return std::exp(acc / static_cast<double>(v.size()));
}

void RunResult::check(bool ok, const std::string& what) {
  ++checks;
  if (ok) return;
  ++checks_failed;
  correct = false;
  if (check_failures.size() < 64) check_failures.push_back(what);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t proc_write_bytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

void sync_filesystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string fs_type(const std::string& path, bool* memory_backed) {
  struct statfs st {};
  *memory_backed = false;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(st.f_type);
  switch (magic) {
    case 0x01021994ul: *memory_backed = true; return "tmpfs";
    case 0x858458f6ul: *memory_backed = true; return "ramfs";
    case 0xEF53ul: return "ext2/3/4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794c7630ul: return "overlayfs";
    case 0x2fc12fc1ul: return "zfs";
    case 0xF2F52010ul: return "f2fs";
    case 0x6969ul: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", magic);
  return buf;
}

json::Value environment(const Options& options) {
  bool memory_backed = false;
  json::Object env;
  env["nproc"] = json::Value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
  env["compiler"] = json::Value(std::string(PERFBENCH_COMPILER));
  env["cmake_build_type"] = json::Value(std::string(PERFBENCH_BUILD_TYPE));
  env["journal_fs"] = json::Value(fs_type(options.work_dir, &memory_backed));
  env["journal_fs_memory_backed"] = json::Value(memory_backed);
  env["seed"] = json::Value(static_cast<std::size_t>(options.seed));
  env["workload"] = json::Value(options.workload);
  env["seconds"] = json::Value(options.seconds);
  env["trace"] = json::Value(options.trace);
  return json::Value(std::move(env));
}

}  // namespace perfbench
