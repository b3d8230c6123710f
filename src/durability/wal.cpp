#include "durability/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "durability/record_io.hpp"

namespace pimkd::durability {

namespace {

constexpr char kMagic[8] = {'P', 'K', 'D', 'W', 'A', 'L', '1', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kTagHeader = 0x10;
constexpr std::uint32_t kTagFrame = 0x11;
// Frame kind byte: every frame written is an applied batch. Kind 1 (an
// online caching-mode switch) is no longer produced and is refused on read.
constexpr std::uint8_t kKindBatch = 0;
constexpr std::uint8_t kKindModeSwitch = 1;

Status data_loss(const std::string& what) {
  return Status::Error(StatusCode::kDataLoss, "wal: " + what);
}

Status io_error(const std::string& what, const std::string& path) {
  return Status::Error(StatusCode::kUnavailable,
                       "wal: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

std::vector<std::uint8_t> encode_frame(const WalFrame& f, int dim) {
  ByteWriter b;
  b.u8(kKindBatch);
  b.u64(f.seq);
  b.u64(f.epoch);
  b.u64(f.base_point_id);
  b.u32(static_cast<std::uint32_t>(f.inserts.size()));
  b.u32(static_cast<std::uint32_t>(f.erases.size()));
  for (const Point& p : f.inserts)
    for (int d = 0; d < dim; ++d) b.f64(p[d]);
  for (const PointId id : f.erases) b.u32(id);
  std::vector<std::uint8_t> out;
  append_record(out, kTagFrame, b.bytes());
  return out;
}

// Decodes one frame body; `kind` reports the kind byte when it was readable
// (read_wal names a retired mode-switch frame by it).
bool decode_frame(const Record& rec, int dim, WalFrame& f,
                  std::uint8_t& kind) {
  ByteReader r(rec.body, rec.len);
  if (!r.u8(kind) || !r.u64(f.seq) || !r.u64(f.epoch)) return false;
  if (kind != kKindBatch) return false;
  std::uint32_t n_ins = 0, n_del = 0;
  if (!r.u64(f.base_point_id) || !r.u32(n_ins) || !r.u32(n_del))
    return false;
  f.inserts.resize(n_ins);
  for (Point& p : f.inserts) {
    p = Point{};
    for (int d = 0; d < dim; ++d)
      if (!r.f64(p[d])) return false;
  }
  f.erases.resize(n_del);
  for (PointId& id : f.erases)
    if (!r.u32(id)) return false;
  return r.remaining() == 0;
}

Status write_all(int fd, const std::uint8_t* data, std::size_t n,
                 const std::string& path) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return io_error("write", path);
    }
    off += static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

}  // namespace

Status WalWriter::create(const std::string& path, int dim,
                         std::uint64_t generation, std::uint64_t start_seq,
                         pim::FaultInjector* faults,
                         std::unique_ptr<WalWriter>& out) {
  out.reset();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return io_error("open", path);

  std::vector<std::uint8_t> bytes(kMagic, kMagic + sizeof kMagic);
  ByteWriter hdr;
  hdr.u32(kVersion);
  hdr.u32(static_cast<std::uint32_t>(dim));
  hdr.u64(generation);
  hdr.u64(start_seq);
  append_record(bytes, kTagHeader, hdr.bytes());
  if (Status s = write_all(fd, bytes.data(), bytes.size(), path); !s.ok()) {
    ::close(fd);
    return s;
  }
  if (::fdatasync(fd) != 0) {
    const Status s = io_error("fdatasync", path);
    ::close(fd);
    return s;
  }
  out.reset(new WalWriter(fd, path, dim, bytes.size(), faults));
  return Status::Ok();
}

Status WalWriter::open(const std::string& path, int dim, std::uint64_t offset,
                       pim::FaultInjector* faults,
                       std::unique_ptr<WalWriter>& out) {
  out.reset();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return io_error("open", path);
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    const Status s = io_error("lseek", path);
    ::close(fd);
    return s;
  }
  out.reset(new WalWriter(fd, path, dim, offset, faults));
  return Status::Ok();
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::append(const WalFrame& frame) {
  if (failed_)
    return data_loss("writer is fail-stopped (previous append failed)");
  std::vector<std::uint8_t> bytes = encode_frame(frame, dim_);
  const std::uint64_t end = offset_ + bytes.size();

  // Scheduled torn-tail events (pim/fault.hpp "torn@N[:cut|:flip]").
  pim::FaultEvent ev;
  if (faults_ && faults_->take_torn(end, ev)) {
    if (ev.arg == 1) {
      // flip: the append lands whole but one bit at absolute offset ev.round
      // is damaged. Stale offsets (before this frame) can no longer be hit —
      // flip the first byte of the frame instead so the damage is real.
      const std::uint64_t at = ev.round >= offset_ ? ev.round - offset_ : 0;
      bytes[static_cast<std::size_t>(at)] ^= 0x01;
    } else {
      // cut: the process "died" mid-write; only the prefix up to the torn
      // offset reaches the file, and this writer never writes again.
      const std::uint64_t keep = ev.round >= offset_ ? ev.round - offset_ : 0;
      bytes.resize(static_cast<std::size_t>(keep));
      failed_ = true;
      if (Status s = write_all(fd_, bytes.data(), bytes.size(), path_);
          !s.ok())
        return s;
      offset_ += bytes.size();
      ::fdatasync(fd_);  // the torn prefix itself may well be durable
      return data_loss("torn-tail fault injected mid-append");
    }
  }

  if (Status s = write_all(fd_, bytes.data(), bytes.size(), path_); !s.ok()) {
    failed_ = true;
    return s;
  }
  offset_ = end;
  return Status::Ok();
}

Status WalWriter::sync() {
  if (failed_) return data_loss("writer is fail-stopped");
  if (::fdatasync(fd_) != 0) {
    failed_ = true;
    return io_error("fdatasync", path_);
  }
  return Status::Ok();
}

Status read_wal(const std::string& path, WalReadResult& out) {
  out = WalReadResult{};
  std::vector<std::uint8_t> buf;
  if (Status s = read_file(path, buf); !s.ok()) return s;
  if (buf.size() < sizeof kMagic ||
      std::memcmp(buf.data(), kMagic, sizeof kMagic) != 0)
    return data_loss("bad magic in '" + path + "'");

  std::size_t pos = sizeof kMagic;
  Record hdr;
  if (!read_record(buf, pos, hdr) || hdr.tag != kTagHeader)
    return data_loss("damaged header in '" + path + "'");
  {
    ByteReader r(hdr.body, hdr.len);
    std::uint32_t dim = 0;
    if (!r.u32(out.version) || !r.u32(dim) || !r.u64(out.generation) ||
        !r.u64(out.start_seq) || r.remaining() != 0)
      return data_loss("damaged header in '" + path + "'");
    if (out.version != kVersion)
      return data_loss("unsupported version in '" + path + "'");
    out.dim = static_cast<int>(dim);
  }
  out.valid_bytes = pos;

  std::uint64_t expect_seq = out.start_seq;
  while (pos < buf.size()) {
    Record rec;
    if (!read_record(buf, pos, rec)) {
      out.torn = true;
      out.torn_reason = "frame framing/CRC failure at byte offset " +
                        std::to_string(out.valid_bytes);
      break;
    }
    if (rec.tag != kTagFrame)
      return data_loss("unexpected record tag in '" + path + "'");
    WalFrame f;
    std::uint8_t kind = 0xff;
    if (!decode_frame(rec, out.dim, f, kind)) {
      // The CRC passed, so this is not a torn append (a partial write cannot
      // carry a valid CRC) and must not be truncated away. A mode-switch
      // frame comes from a build that could change the caching mode online;
      // replaying the batches around it under the wrong mode would recover
      // a different tree, so the log is refused as a whole.
      if (kind == kKindModeSwitch)
        return data_loss("caching-mode switch frame (seq " +
                         std::to_string(f.seq) + ") in '" + path +
                         "': online caching-mode switches are no longer "
                         "supported");
      // Otherwise it is a format bug or deliberate tampering, and silently
      // dropping it would hide it.
      return data_loss("undecodable frame body in '" + path + "'");
    }
    if (f.seq != expect_seq)
      return data_loss("seq discontinuity in '" + path + "': frame " +
                       std::to_string(f.seq) + ", expected " +
                       std::to_string(expect_seq));
    ++expect_seq;
    out.frames.push_back(std::move(f));
    out.valid_bytes = pos;
  }
  if (!out.torn && pos != buf.size()) out.torn = true;
  return Status::Ok();
}

Status truncate_wal(const std::string& path, std::uint64_t valid_bytes) {
  return truncate_file(path, valid_bytes);
}

}  // namespace pimkd::durability
