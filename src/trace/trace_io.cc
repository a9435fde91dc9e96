#include "trace/trace_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include <sys/stat.h>

#include "common/degrade.hh"
#include "common/faultinject.hh"

namespace bouquet
{

namespace
{

// Serialized little-endian the on-disk bytes are '1','V','E','C',
// 'R','T','Q','B': byte 0 is the format version digit, bytes 1..7
// identify the format family.
constexpr std::uint64_t kMagic = 0x42515452'43455631ull;  // "BQTRCEV1"
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 20;

void
encode(const TraceRecord &r, unsigned char *buf)
{
    std::memcpy(buf, &r.ip, 8);
    std::memcpy(buf + 8, &r.vaddr, 8);
    buf[16] = static_cast<unsigned char>(r.type);
    buf[17] = static_cast<unsigned char>(r.bubble & 0xFF);
    buf[18] = static_cast<unsigned char>(r.bubble >> 8);
    buf[19] = r.serialize ? 1 : 0;
}

void
decode(const unsigned char *buf, TraceRecord &r)
{
    std::memcpy(&r.ip, buf, 8);
    std::memcpy(&r.vaddr, buf + 8, 8);
    r.type = static_cast<AccessType>(buf[16]);
    r.bubble = static_cast<std::uint16_t>(buf[17] |
                                          (buf[18] << 8));
    r.serialize = buf[19] != 0;
}

struct FileCloser
{
    void operator()(std::FILE *f) const { std::fclose(f); }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

Result<std::vector<TraceRecord>>
readTraceRecords(const std::string &path)
{
    if (auto fault = faultCheck(faults::kTraceRead, path))
        return *fault;

    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return makeError(Errc::io,
                         "cannot open trace file: " + path);

    struct ::stat st = {};
    if (::fstat(::fileno(f.get()), &st) != 0)
        return makeError(Errc::io,
                         "cannot stat trace file: " + path, true);
    const std::uint64_t file_bytes =
        static_cast<std::uint64_t>(st.st_size);
    if (file_bytes < kHeaderBytes)
        return makeError(Errc::truncated,
                         "truncated trace header: " + path + ": " +
                             std::to_string(file_bytes) +
                             " bytes, header needs " +
                             std::to_string(kHeaderBytes));

    std::uint64_t magic = 0;
    std::uint64_t count = 0;
    if (std::fread(&magic, sizeof(magic), 1, f.get()) != 1 ||
        std::fread(&count, sizeof(count), 1, f.get()) != 1)
        return makeError(Errc::io,
                         "trace header read failed: " + path, true);
    if (magic != kMagic) {
        // Same format family but a different version digit is a
        // version mismatch, anything else is not a trace file.
        if ((magic & ~0xFFull) == (kMagic & ~0xFFull))
            return makeError(
                Errc::bad_version,
                "unsupported trace format version '" +
                    std::string(1, static_cast<char>(magic & 0xFF)) +
                    "' (expected '" +
                    std::string(1, static_cast<char>(kMagic & 0xFF)) +
                    "'): " + path);
        return makeError(Errc::bad_magic,
                         "not a bouquet trace file (bad magic): " +
                             path);
    }
    if (count == 0)
        return makeError(Errc::empty,
                         "trace file holds zero records: " + path);

    // The header's record count must agree exactly with the file
    // size before anything is trusted.
    constexpr std::uint64_t kMaxRecords =
        (UINT64_MAX - kHeaderBytes) / kRecordBytes;
    const std::uint64_t expected_bytes =
        count > kMaxRecords ? UINT64_MAX
                            : kHeaderBytes + count * kRecordBytes;
    if (file_bytes < expected_bytes)
        return makeError(Errc::truncated,
                         "truncated trace file: " + path +
                             ": header claims " +
                             std::to_string(count) + " records (" +
                             std::to_string(expected_bytes) +
                             " bytes) but file has " +
                             std::to_string(file_bytes));
    if (file_bytes > expected_bytes)
        return makeError(Errc::oversized,
                         "oversized trace file: " + path +
                             ": header claims " +
                             std::to_string(count) + " records (" +
                             std::to_string(expected_bytes) +
                             " bytes) but file has " +
                             std::to_string(file_bytes));

    // Read the payload in fixed chunks and decode each straight into
    // the reserved record vector: no second whole-file buffer, and no
    // value-initialised records that are overwritten at once. (The
    // `trace.read` fault-injection point stays at the top of this
    // function, covering the read as a whole.)
    constexpr std::uint64_t kChunkRecords = 4096;
    std::vector<TraceRecord> records;
    records.reserve(count);
    std::vector<unsigned char> raw(kChunkRecords * kRecordBytes);
    TraceRecord r;
    for (std::uint64_t left = count; left > 0;) {
        const std::uint64_t n = std::min(left, kChunkRecords);
        if (std::fread(raw.data(), kRecordBytes, n, f.get()) != n)
            return makeError(Errc::io,
                             "trace payload read failed: " + path, true);
        for (std::uint64_t i = 0; i < n; ++i) {
            decode(raw.data() + i * kRecordBytes, r);
            records.push_back(r);
        }
        left -= n;
    }
    bumpProgressEpoch();  // a decode is forward progress, not a stall
    return records;
}

Status
writeTrace(const std::string &path, WorkloadGenerator &gen,
           std::uint64_t count)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return makeError(Errc::io,
                         "cannot open trace file for writing: " +
                             path);
    if (std::fwrite(&kMagic, sizeof(kMagic), 1, f.get()) != 1 ||
        std::fwrite(&count, sizeof(count), 1, f.get()) != 1)
        return makeError(Errc::io,
                         "trace header write failed: " + path, true);

    unsigned char buf[kRecordBytes];
    TraceRecord r;
    for (std::uint64_t i = 0; i < count; ++i) {
        gen.next(r);
        encode(r, buf);
        if (std::fwrite(buf, 1, kRecordBytes, f.get()) != kRecordBytes)
            return makeError(Errc::io,
                             "trace record write failed: " + path,
                             true);
    }
    return Status();
}

Result<std::unique_ptr<TraceFileGenerator>>
TraceFileGenerator::load(const std::string &path, std::string name)
{
    Result<std::vector<TraceRecord>> records = readTraceRecords(path);
    if (!records.ok())
        return records.error();
    return std::make_unique<TraceFileGenerator>(
        name.empty() ? path : std::move(name),
        std::make_shared<const std::vector<TraceRecord>>(
            records.take()));
}

void
TraceFileGenerator::next(TraceRecord &out)
{
    out = (*records_)[pos_];
    // Branch instead of modulo: this runs once per simulated memory
    // instruction and the division was measurable in profiles.
    if (++pos_ == records_->size())
        pos_ = 0;
}

} // namespace bouquet
