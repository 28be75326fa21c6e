// xicbench_load: open-loop xic/1 load generator for the xicd_mix
// workload.
//
//   xicbench_load PORT HASHES REQUESTS.bin REQUESTS.schedule OUT
//
// REQUESTS.bin holds distinct request frames back to back; each line of
// the schedule is "due_us conn frame_index". One keep-alive connection
// per distinct `conn`; on each, a sender thread writes every frame at its
// due time whether or not earlier replies arrived (open loop; the daemon
// reads frames one at a time, so early frames queue in the socket), and a
// receiver thread reads the replies in order. `schema=@K` in a frame
// header becomes `schema=` plus the K-th of the comma-separated HASHES.
//
// OUT gets one record per scheduled request, in schedule order:
//   "<index> <latency_us> <late_us> <code> <body_bytes>\n<body>"
// latency is reply time minus due time; late is send time minus due
// time (how far the generator itself fell behind). A request that got no
// reply reports code "none". Exit 0 when every request got a reply.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "util/strings.h"
#include "wire.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Scheduled {
  int64_t due_us = 0;
  size_t conn = 0;
  size_t frame = 0;
  int64_t latency_us = -1;
  int64_t late_us = 0;
  std::string code = "none";
  std::string body;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 6) {
    std::cerr << "usage: xicbench_load PORT HASHES REQUESTS.bin "
                 "REQUESTS.schedule OUT\n";
    return 2;
  }
  const int port = std::atoi(argv[1]);
  const std::vector<std::string> hashes = xic::Split(argv[2], ',');
  xic::Result<std::vector<xic::serve::Request>> requests =
      xicbench::ReadFrames(argv[3]);
  if (!requests.ok()) {
    std::cerr << requests.status() << "\n";
    return 2;
  }
  std::vector<std::string> frames;
  for (xic::serve::Request& r : requests.value()) {
    xicbench::ResolveSchema(hashes, &r);
    frames.push_back(xic::serve::FormatRequest(r));
  }
  std::vector<Scheduled> schedule;
  size_t conns = 0;
  {
    std::ifstream in(argv[4]);
    Scheduled s;
    while (in >> s.due_us >> s.conn >> s.frame) {
      if (s.frame >= frames.size()) {
        std::cerr << "schedule names frame " << s.frame << " of "
                  << frames.size() << "\n";
        return 2;
      }
      conns = std::max(conns, s.conn + 1);
      schedule.push_back(s);
    }
  }
  std::vector<std::vector<size_t>> per_conn(conns);
  for (size_t i = 0; i < schedule.size(); ++i) {
    per_conn[schedule[i].conn].push_back(i);
  }
  std::vector<int> fds(conns);
  for (size_t c = 0; c < conns; ++c) {
    fds[c] = xicbench::Connect(port);
    if (fds[c] < 0) {
      std::cerr << "cannot connect to port " << port << "\n";
      return 2;
    }
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  auto since = [start](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - start)
        .count();
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i : per_conn[c]) {
        Scheduled& s = schedule[i];
        std::this_thread::sleep_until(start +
                                      std::chrono::microseconds(s.due_us));
        s.late_us = since(Clock::now()) - s.due_us;
        if (!xicbench::SendAll(fds[c], frames[s.frame])) return;
      }
    });
    threads.emplace_back([&, c] {
      xicbench::ReplyReader reader(fds[c]);
      for (size_t i : per_conn[c]) {
        Scheduled& s = schedule[i];
        xic::serve::ResponseHead head;
        if (!reader.Next(&head, &s.body)) return;
        s.latency_us = since(Clock::now()) - s.due_us;
        s.code = xic::serve::WireCode(head.code);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int fd : fds) ::close(fd);

  std::ofstream out(argv[5], std::ios::binary);
  bool all = true;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Scheduled& s = schedule[i];
    all = all && s.latency_us >= 0;
    out << i << ' ' << s.latency_us << ' ' << s.late_us << ' ' << s.code
        << ' ' << s.body.size() << '\n'
        << s.body;
  }
  return all ? 0 : 1;
}
