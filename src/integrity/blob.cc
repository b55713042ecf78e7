#include "integrity/blob.h"

#include <cstring>
#include <stdexcept>

namespace approxhadoop::integrity {

void
BlobWriter::putU64(uint64_t v)
{
    char bytes[8];
    storeU64(bytes, v);
    buf_.append(bytes, sizeof(bytes));
}

void
BlobWriter::putDouble(double v)
{
    char bytes[8];
    storeDouble(bytes, v);
    buf_.append(bytes, sizeof(bytes));
}

void
BlobWriter::putString(std::string_view s)
{
    putU64(s.size());
    buf_.append(s);
}

void
BlobReader::need(size_t bytes) const
{
    if (buf_.size() - pos_ < bytes) {
        throw std::runtime_error("checkpoint blob: truncated");
    }
}

uint64_t
BlobReader::getU64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
        v = (v << 8) |
            static_cast<unsigned char>(buf_[pos_ + static_cast<size_t>(i)]);
    }
    pos_ += 8;
    return v;
}

double
BlobReader::getDouble()
{
    uint64_t bits = getU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
BlobReader::getString()
{
    uint64_t len = getU64();
    need(len);
    std::string s = buf_.substr(pos_, len);
    pos_ += len;
    return s;
}

void
BlobReader::expectEnd() const
{
    if (!atEnd()) {
        throw std::runtime_error("checkpoint blob: trailing bytes");
    }
}

}  // namespace approxhadoop::integrity
