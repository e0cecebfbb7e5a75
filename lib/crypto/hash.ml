type algorithm = SHA1 | SHA256 | SHA512 | MD5

let digest_size = function
  | SHA1 -> Sha1.digest_size
  | SHA256 -> Sha256.digest_size
  | SHA512 -> Sha512.digest_size
  | MD5 -> Md5.digest_size

let block_size = function SHA1 | SHA256 | MD5 -> 64 | SHA512 -> 128

let digest alg s =
  match alg with
  | SHA1 -> Sha1.digest s
  | SHA256 -> Sha256.digest s
  | SHA512 -> Sha512.digest s
  | MD5 -> Md5.digest s

let hex alg s = Util.to_hex (digest alg s)

let name = function
  | SHA1 -> "SHA-1"
  | SHA256 -> "SHA-256"
  | SHA512 -> "SHA-512"
  | MD5 -> "MD5"
