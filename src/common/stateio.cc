#include "common/stateio.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "common/degrade.hh"
#include "common/faultinject.hh"

namespace bouquet
{

namespace
{

/**
 * Container header, fixed 36 bytes, little-endian. The build id that
 * follows is informational (recorded for post-mortems, never
 * validated): a checkpoint is portable across builds as long as the
 * format version and config hash agree.
 */
constexpr char kMagic[8] = {'I', 'P', 'C', 'P', 'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = 36;

const char *
buildId()
{
    return __DATE__ " " __TIME__;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

struct CrcTable
{
    std::uint32_t entries[256];

    CrcTable()
    {
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            entries[n] = c;
        }
    }
};

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const CrcTable table;
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table.entries[(c ^ data[i]) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

Status
writeCheckpointFile(const std::string &path, std::uint64_t config_hash,
                    const std::vector<std::uint8_t> &payload)
{
    if (auto err = faultCheck(faults::kCkptWrite, path))
        return *err;
    if (faultCheck(faults::kCkptNospace, path))
        return makeError(Errc::no_space,
                         "injected ENOSPC writing " + path, true);

    // Only the fixed header and the short build id are assembled in
    // memory; the (multi-megabyte) payload is streamed straight from
    // the caller's buffer instead of being copied into a full image.
    const std::string build = buildId();
    std::vector<std::uint8_t> header;
    header.reserve(kHeaderBytes + build.size());
    header.insert(header.end(), kMagic, kMagic + sizeof(kMagic));
    putU32(header, kCheckpointVersion);
    putU32(header, static_cast<std::uint32_t>(build.size()));
    putU64(header, config_hash);
    putU64(header, payload.size());
    putU32(header, crc32(payload.data(), payload.size()));
    header.insert(header.end(), build.begin(), build.end());

    // A pid-unique temp name: two processes writing the same path
    // (a reclaimed lease) must not interleave their bytes in one file.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return classifyWriteErrno(errno,
                                  "cannot open " + tmp + " for writing");
    bool ok = std::fwrite(header.data(), 1, header.size(), f) ==
              header.size();
    ok = std::fwrite(payload.data(), 1, payload.size(), f) ==
             payload.size() &&
         ok;
    ok = std::fflush(f) == 0 && ok;
    if (ok)
        ok = ::fsync(::fileno(f)) == 0;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        const int saved = errno;
        std::remove(tmp.c_str());
        return classifyWriteErrno(saved, "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        std::remove(tmp.c_str());
        return classifyWriteErrno(saved,
                                  "cannot rename " + tmp + " to " +
                                      path);
    }
    return Status();
}

Result<std::vector<std::uint8_t>>
readCheckpointFile(const std::string &path, std::uint64_t config_hash)
{
    if (auto err = faultCheck(faults::kCkptRead, path))
        return *err;

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return makeError(Errc::io, "cannot open checkpoint " + path);

    std::vector<std::uint8_t> image;
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        image.insert(image.end(), chunk, chunk + got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        return makeError(Errc::io, "read error on checkpoint " + path,
                         true);

    if (image.size() < sizeof(kMagic) ||
        std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
        return makeError(Errc::bad_magic,
                         path + " is not a checkpoint file");
    if (image.size() < kHeaderBytes)
        return makeError(Errc::truncated,
                         "checkpoint " + path + " has a short header");

    const std::uint32_t version = getU32(image.data() + 8);
    const std::uint32_t build_len = getU32(image.data() + 12);
    const std::uint64_t file_hash = getU64(image.data() + 16);
    const std::uint64_t payload_size = getU64(image.data() + 24);
    const std::uint32_t payload_crc = getU32(image.data() + 32);

    if (version != kCheckpointVersion)
        return makeError(Errc::bad_version,
                         "checkpoint " + path + " is format version " +
                             std::to_string(version) + ", expected " +
                             std::to_string(kCheckpointVersion));

    const std::uint64_t expect =
        kHeaderBytes + std::uint64_t{build_len} + payload_size;
    if (image.size() < expect)
        return makeError(Errc::truncated,
                         "checkpoint " + path + " is truncated: " +
                             std::to_string(image.size()) + " of " +
                             std::to_string(expect) + " bytes");
    if (image.size() > expect)
        return makeError(Errc::oversized,
                         "checkpoint " + path + " has trailing bytes");

    if (file_hash != config_hash)
        return makeError(Errc::corrupt,
                         "checkpoint " + path +
                             " was written for a different system "
                             "configuration");

    const std::uint8_t *payload =
        image.data() + kHeaderBytes + build_len;
    if (crc32(payload, payload_size) != payload_crc)
        return makeError(Errc::corrupt,
                         "checkpoint " + path + " failed CRC validation");

    return std::vector<std::uint8_t>(payload, payload + payload_size);
}

} // namespace bouquet
