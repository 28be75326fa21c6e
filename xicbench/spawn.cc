// xicbench_spawn: runs one program and reports what it cost.
//
//   xicbench_spawn OUT PROGRAM [ARGS...]
//
// Runs PROGRAM with stdin from /dev/null and stdout+stderr into OUT.
// Prints the child's pid on a line of its own as soon as it starts, and
// "<exit code> <wall seconds> <cpu seconds> <peak RSS KiB> <steal
// seconds>" after it ends. SIGTERM and SIGINT are forwarded to the child.
//
// Steal is the time the hypervisor ran other guests on this machine's
// CPUs while the child ran (the `steal` column of /proc/stat), averaged
// over the CPUs: wall minus steal is the wall time the child would have
// taken on CPUs of its own.
//
// Why a separate process: Linux carries a process's peak RSS across
// exec(), and a child forked from a large parent (the Python runner
// holds generated inputs) starts with the parent's peak. Forked from
// this small program instead, the child's ru_maxrss is its own.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace {

volatile pid_t g_child = 0;

void Forward(int sig) {
  if (g_child > 0) kill(g_child, sig);
}

double Seconds(const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; }

double Now() {
  timespec t;
  clock_gettime(CLOCK_MONOTONIC, &t);
  return t.tv_sec + t.tv_nsec / 1e9;
}

// Steal seconds since boot, summed over the CPUs and divided by their
// number.
double StealPerCpu() {
  FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0;
  char line[512];
  long long steal = 0;
  int cpus = 0;
  while (std::fgets(line, sizeof line, stat) != nullptr &&
         std::strncmp(line, "cpu", 3) == 0) {
    if (line[3] == ' ') {
      // cpu  user nice system idle iowait irq softirq steal ...
      std::sscanf(line + 3, "%*lld %*lld %*lld %*lld %*lld %*lld %*lld %lld",
                  &steal);
    } else {
      ++cpus;
    }
  }
  std::fclose(stat);
  return cpus > 0 ? static_cast<double>(steal) / sysconf(_SC_CLK_TCK) / cpus
                  : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: xicbench_spawn OUT PROGRAM [ARGS...]\n");
    return 2;
  }
  struct sigaction action = {};
  action.sa_handler = Forward;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const double steal = StealPerCpu();
  const double start = Now();
  pid_t child = fork();
  if (child == 0) {
    int in = open("/dev/null", O_RDONLY);
    int out = open(argv[1], O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (in < 0 || out < 0) _exit(127);
    dup2(in, 0);
    dup2(out, 1);
    dup2(out, 2);
    execv(argv[2], argv + 2);
    _exit(127);
  }
  if (child < 0) return 2;
  g_child = child;
  std::printf("%d\n", static_cast<int>(child));
  std::fflush(stdout);

  int status = 0;
  rusage usage = {};
  while (wait4(child, &status, 0, &usage) < 0) {
    if (errno != EINTR) return 2;
  }
  const double wall = Now() - start;
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf("%d %.6f %.6f %ld %.6f\n", code, wall,
              Seconds(usage.ru_utime) + Seconds(usage.ru_stime),
              usage.ru_maxrss, StealPerCpu() - steal);
  return 0;
}
