#include "store/lockfile.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <thread>

namespace mn::store {

std::string store_lock_path(const std::string& dir) {
  return (std::filesystem::path(dir) / "store.lock").string();
}

FileLock::~FileLock() { release(); }

FileLock::FileLock(FileLock&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

FileLock& FileLock::operator=(FileLock&& other) noexcept {
  if (this != &other) {
    release();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void FileLock::release() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);  // closing would drop it too; be explicit
    ::close(fd_);
    fd_ = -1;
  }
}

int FileLock::open_lock_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("store lock: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
}

FileLock FileLock::shared(const std::string& path) {
  const int fd = open_lock_file(path);
  int rc;
  do {
    rc = ::flock(fd, LOCK_SH);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("store lock: flock(LOCK_SH) on " + path + ": " +
                             std::strerror(err));
  }
  return FileLock{fd};
}

FileLock FileLock::try_exclusive(const std::string& path) {
  const int fd = open_lock_file(path);
  int rc;
  do {
    rc = ::flock(fd, LOCK_EX | LOCK_NB);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return FileLock{};
  }
  return FileLock{fd};
}

FileLock FileLock::exclusive(const std::string& path, int attempts,
                             std::chrono::milliseconds backoff) {
  for (int i = 0; i < attempts; ++i) {
    FileLock lock = try_exclusive(path);
    if (lock.held()) return lock;
    if (i + 1 < attempts) std::this_thread::sleep_for(backoff);
  }
  throw StoreBusyError("store lock: " + path +
                       " is held shared by another appender (a live RunStore); "
                       "close it or retry later");
}

}  // namespace mn::store
