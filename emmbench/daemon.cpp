// The emmapcd child process: spawn on a private socket, read its status
// lines, drain it with SIGTERM, and never leave it running.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.h"
#include "support/diagnostics.h"

namespace emmbench {

namespace {

constexpr int kStartTimeoutMs = 20000;
constexpr int kDrainTimeoutMs = 20000;

}  // namespace

Daemon::Daemon(const std::string& exe, const std::string& workDir, int jobs) {
  ::mkdir(workDir.c_str(), 0700);
  std::string tmpl = workDir + "/emmapcd-XXXXXX";
  EMM_REQUIRE(::mkdtemp(tmpl.data()) != nullptr, "cannot create a directory under " + workDir);
  dir_ = tmpl;
  socket_ = dir_ + "/d.sock";
  int pipeFds[2];
  EMM_REQUIRE(::pipe2(pipeFds, O_CLOEXEC) == 0, "cannot create the daemon output pipe");
  const std::string socketArg = "--socket=" + socket_;
  const std::string jobsArg = "--jobs=" + std::to_string(jobs);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    // Child: die with the benchmark, report on the pipe, exec the daemon.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipeFds[1], STDOUT_FILENO);
    ::execl(exe.c_str(), exe.c_str(), socketArg.c_str(), jobsArg.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipeFds[1]);
  outFd_ = pipeFds[0];
  const std::string line = pid_ > 0 ? readLine(kStartTimeoutMs) : "";
  if (line.rfind("emmapcd: serving ", 0) != 0) {
    const std::string why = pid_ > 0 ? "emmapcd did not report serving: '" + line + "'"
                                     : "cannot fork emmapcd";
    cleanup();
    throw emm::ApiError(why);
  }
}

Daemon::~Daemon() { cleanup(); }

void Daemon::cleanup() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  if (outFd_ >= 0) ::close(outFd_);
  outFd_ = -1;
  if (!dir_.empty()) {
    ::unlink(socket_.c_str());
    ::rmdir(dir_.c_str());
    dir_.clear();
  }
}

std::string Daemon::readLine(int timeoutMs) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeoutMs);
  for (;;) {
    const size_t nl = outBuf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = outBuf_.substr(0, nl);
      outBuf_.erase(0, nl + 1);
      return line;
    }
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count());
    pollfd p{outFd_, POLLIN, 0};
    if (left <= 0 || ::poll(&p, 1, left) <= 0) break;
    char buf[512];
    const ssize_t n = ::read(outFd_, buf, sizeof buf);
    if (n <= 0) break;
    outBuf_.append(buf, static_cast<size_t>(n));
  }
  std::string rest;
  rest.swap(outBuf_);
  return rest;
}

double vmHwmMb(const std::string& statusPath) {
  std::ifstream status(statusPath);
  std::string field;
  while (status >> field)
    if (field == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  return 0;
}

Daemon::Drain Daemon::stop() {
  Drain d;
  if (pid_ <= 0) {
    d.error = "emmapcd is not running";
    return d;
  }
  ::kill(pid_, SIGTERM);
  bool draining = false;
  for (std::string line = readLine(kDrainTimeoutMs); !line.empty();
       line = readLine(kDrainTimeoutMs)) {
    long long connections = 0, requests = 0;
    if (line == "emmapcd: draining...") draining = true;
    if (std::sscanf(line.c_str(), "emmapcd: served %lld connections, %lld requests",
                    &connections, &requests) == 2)
      d.requests = requests;
  }
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(kDrainTimeoutMs);
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done != pid_) {
    d.error = "emmapcd did not exit after SIGTERM";
    return d;  // the destructor kills it
  }
  pid_ = -1;
  struct stat st;
  if (!draining)
    d.error = "emmapcd printed no drain line";
  else if (d.requests < 0)
    d.error = "emmapcd printed no request totals";
  else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    d.error = "emmapcd exited with status " + std::to_string(status);
  else if (::stat(socket_.c_str(), &st) == 0)
    d.error = "emmapcd left its socket file behind";
  else
    d.ok = true;
  return d;
}

}  // namespace emmbench
