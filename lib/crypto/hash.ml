type algorithm = SHA1 | SHA256 | MD5

let digest_size = function
  | SHA1 -> Sha1.digest_size
  | SHA256 -> Sha256.digest_size
  | MD5 -> Md5.digest_size

let block_size = Block_hash.block_size

let digest alg s =
  match alg with
  | SHA1 -> Sha1.digest s
  | SHA256 -> Sha256.digest s
  | MD5 -> Md5.digest s

let hex alg s = Util.to_hex (digest alg s)

let name = function
  | SHA1 -> "SHA-1"
  | SHA256 -> "SHA-256"
  | MD5 -> "MD5"
