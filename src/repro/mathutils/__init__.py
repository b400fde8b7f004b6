"""Number-theoretic substrate: modular arithmetic, primes, RNG, serialization,
and the bounded memo the protocols share computed values through.

This subpackage has no dependency on the rest of the library; everything else
(groups, signatures, protocols) is built on top of it.
"""

from .modular import (
    crt,
    egcd,
    gcd,
    is_perfect_square,
    is_quadratic_residue,
    int_nth_root,
    jacobi,
    lcm,
    legendre,
    modexp,
    modinv,
    product_mod,
)
from .memo import MEMO_LIMIT, Memo
from .primes import (
    RSAModulus,
    SMALL_PRIMES,
    generate_rsa_modulus,
    generate_schnorr_parameters,
    is_probable_prime,
    miller_rabin,
    next_prime,
    random_prime,
    random_safe_prime,
)
from .rand import DeterministicRNG, default_rng
from .serialization import (
    bit_size,
    byte_size,
    bytes_to_int,
    concat_bits,
    decode_fields,
    encode_fields,
    i2osp,
    int_to_bytes,
    os2ip,
)

__all__ = [
    # modular
    "crt",
    "egcd",
    "gcd",
    "is_perfect_square",
    "is_quadratic_residue",
    "int_nth_root",
    "jacobi",
    "lcm",
    "legendre",
    "modexp",
    "modinv",
    "product_mod",
    # memo
    "MEMO_LIMIT",
    "Memo",
    # primes
    "RSAModulus",
    "SMALL_PRIMES",
    "generate_rsa_modulus",
    "generate_schnorr_parameters",
    "is_probable_prime",
    "miller_rabin",
    "next_prime",
    "random_prime",
    "random_safe_prime",
    # rand
    "DeterministicRNG",
    "default_rng",
    # serialization
    "bit_size",
    "byte_size",
    "bytes_to_int",
    "concat_bits",
    "decode_fields",
    "encode_fields",
    "i2osp",
    "int_to_bytes",
    "os2ip",
]
