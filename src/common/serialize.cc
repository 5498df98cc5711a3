#include "common/serialize.h"

namespace procrustes {

void
ByteWriter::writeTensor(const Tensor &t)
{
    const Shape &s = t.shape();
    writeU32(static_cast<uint32_t>(s.rank()));
    for (int i = 0; i < s.rank(); ++i)
        writeI64(s[i]);
    writeI64(t.numel());
    writeBytes(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

Tensor
ByteReader::readTensor()
{
    const uint32_t rank = readU32();
    if (rank > static_cast<uint32_t>(Shape::kMaxRank))
        FATAL("checkpoint corrupt: tensor rank out of range");
    std::vector<int64_t> dims;
    dims.reserve(rank);
    for (uint32_t i = 0; i < rank; ++i) {
        dims.push_back(readI64());
        if (dims.back() < 0)
            FATAL("checkpoint corrupt: negative tensor extent");
    }
    const int64_t numel = readI64();
    // Check the payload fits before the Tensor allocates it; the
    // running product stays within the payload, so it cannot overflow.
    uint64_t product = 1;
    for (int64_t d : dims) {
        if (d != 0 && product > remaining() / sizeof(float) /
                                    static_cast<uint64_t>(d)) {
            FATAL("checkpoint truncated: tensor payload overruns "
                  "snapshot");
        }
        product *= static_cast<uint64_t>(d);
    }
    if (static_cast<uint64_t>(numel) != product)
        FATAL("checkpoint corrupt: tensor payload size mismatch");
    Tensor t(rank ? Shape(dims) : Shape{});
    readBytes(t.data(), static_cast<size_t>(numel) * sizeof(float));
    return t;
}

} // namespace procrustes
