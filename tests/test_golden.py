"""Certificate documents for the bivariate corpus, pinned byte for byte.

Each entry records, per method, the degrees (q1, q2) and the sha256 of the
serialized certificate document.  Any change to how coefficients, degrees or
report fields are computed shows up here as a changed digest.
"""

import hashlib

import pytest

from berncert import certify_nested, certify_raise
from berncert.documents import CertificateDocument, serialize_certificate_document
from corpus import BIVARIATE_CORPUS

GOLDEN = [
    ('1', (2, 2, '6368ba9cbff28c17e961a852ba3f713f97da71fbbb35e6ca0a2f87ae1a1d16a8'), (2, 2, '1804f8521767a55b468c0702f1308eea409581d2d7739ea4e17fdb3e7c16e13d')),
    ('3/7', (2, 2, '0591e8339426b914662a6f359374175c0ef4b09ddbc85a02a01a8b66d43e38bd'), (2, 2, '6c2967044bd68811d332e0c7c4da566cd59e993c93302dd5699297e1dc322a34')),
    ('5', (2, 2, 'a4c787c30f952bef6c67c01018c5be4148682906c83f0b6866e988a1977495ed'), (2, 2, '2abe2469d746a033d38b55c5d11c722cb4750237e50446f18f9b1a4f5de2864b')),
    ('1+x1', (16, 2, '299aff73fb8d24d5efd9fdda84e20329e072ae83af1ae8a263b9fcb9ecc7509b'), (2, 2, 'c87bcf0262456020e89dd1b4e3562c51a8b305d5fa41d915c52ea4375b6a3c4f')),
    ('2-x2', (2, 32, 'abbc0680ed98fdcc7a51d2a358d45565b0a72c43dcb1238a775ee45e34ab5f68'), (2, 2, '26ff34437fce068f5bc5caacbd314ffe7c7a320274b9606b5ecd3d43d497813d')),
    ('1+x1+x2', (16, 16, 'fa6df097c22e1c63b032fc814c87899be3d7688f20be99af56bee533d013d2c6'), (2, 2, '5b5a4c663d27fea30d7b1a46655993dd2aaa84fcabd4e9cd0e044d0ec627eeaa')),
    ('(1+x1)(1+x2)', (24, 16, '7b8f99402de1fbb6eefcbe99843297324c87e5a96791da59bd82693d377caf10'), (2, 2, 'e781b994d465984d15637c95063991221d691f5610cb274ac1be61554af13f30')),
    ('2-x1x2', (32, 32, '9fd4121f55baf60fed23809d39e55286ba5dbcbd5dd9bcd1724182ec385888a0'), (2, 2, 'be09f0f1a6dd402777bd5fbf6db22af5a8990581b624277b3c27c781f57121ef')),
    ('1/2+x1x2', (24, 24, 'f454e938b274ee06531ed034f07c7cd7b9e7df8a120b9fb32fbe96c8feffc483'), (2, 2, '4ddbcc26fe3e2c233dd3027559227206475dc6abeae228e8805e61a2c27aca1c')),
    ('3+x1-x2', (16, 24, 'b3996a0872a844592c14350f547dce82d51b6ebea98cba6b5a52ac874b05d9bc'), (2, 2, '1c400b92ee2ea3039982290758b7773fbe60be8e48053ebaf54d5d522f8201d9')),
    ('1+x1/2-x2/3', (14, 24, '0e592c5e2dd68c3671d254dffb37aa1f29a79d516871da90404f5cd45ed36a8e'), (2, 2, 'a4592efd357e8a2b10227406bba3ae8d22db8915b9b8059501c4a194d946be9d')),
    ('2+x1-3x2/2+x1x2', (40, 64, '673a7d4ccb544f2d91e434b76349722607f3306dc591adb8d3439eb01c202699'), (2, 2, '2f36283a8526ea49d60996ce28d23b717be8d109f70acaa1cff7421f4f6eff6e')),
    ('1+x1^2+x2', (206, 16, '2b6b5cbcfcef60ec17d6b6e0462ca48b9d427e622c703b94b7e0da8babb8e723'), (2, 2, 'e3d0de5d6e7b4820c29788e48124f2e30b25d41d3e3b53b1e4ce1824dba94e56')),
    ('2-x2^2', (2, 142, '5a5684f870ea5b26d9786c5607794a0fe0b01df53253801064448c7b0792d703'), (2, 2, '12f981beffa652260eeb5b65005ef84895e9e90a48afb562443035cdb50d0e7d')),
    ('1+x1^2x2', (142, 16, '4f8e14e35ab718df5e8941266a1f8acaa598ab0b5fed0f27a2b70726aa832320'), (2, 2, 'f3de5a7ceea782ab580ddea3f2fdc07c1b937b09e85eae97ae986091e461416b')),
    ('3-x1x2^2', (24, 78, '77c591f05a19cb175c0962b09bb7cd82b32c5329e79fd899f758ade62485e9f9'), (2, 2, '276a047b6891baf35d7745816c6712a4ab54740d4b19913f95dad6117c12c56c')),
    ('x1^2-x1+1+x2', (526, 20, '5214393d12e1c66416e85191bb3872e7b283b77f584200a0dad53ea3f772fdbb'), (2, 2, 'f215247bf254e6f2f4f04f988a98dab2e7dbd2d2f6955e9d675b2690dda0b80a')),
    ('1+x2^2-x2+x1/2', (16, 398, '81c9e5e8c8bc75b807409af391f5460840da8fb20b89ef27dd63bfbde59ae369'), (2, 2, '86363ec8aa347ea3b3d784ca9b2367d55ecf5f9f5c40590733265266001503f5')),
    ('2+x1-x2+x2^2/2', (14, 164, '61622bf34e4a295eba0db7c61198a0943d8fb5579e0efadff6a41aff0eef0168'), (2, 2, 'f4ace59cdd6d4a303d65e18e364207eeabf6c74fb85cc08708eb4dbab9f22c0a')),
    ('2+x1^2x2^2/8', (82, 82, '7bb2f88680654d8ad8859974766ff5fa0c349508af002d64ffb0c820f2c84bd2'), (2, 2, 'c041709db2a4c4b5989538818414db386050ffa53650eea3cddc8432b2d5ddb9')),
    ('1+(x1-x2)^2/8', (118, 110, '85745e6542d53315eb62efbaf9ae4093f6a13b4b50a885cae8fb2c8951248c30'), (2, 2, '5c07f9765a08c22890ea544824447389fd27b8f9b60db6f32325748e49029370')),
    ('4+x1^2+x2^2-x1-x2', (142, 128, '033681c00753615e72ef517d7b82abe5213be863ed1e7f978eddcbe5a0de3dfd'), (2, 2, '9dabefa78505a0d182fce619f424ceb009df09e3e341774928a9cfa585e908e4')),
    ('3+x1x2+x1^2x2^2/4', (78, 78, 'e7c66ec57b7f7a6a8c387927bf828b800440a6ce9df6f4e3ab4627b951e7d260'), (2, 2, 'c719c7516fad5e15175dec3bc09296378e464175f3d0a1807700add3d3f6612c')),
    ('2+x1x2-x1^2x2^2/2', (78, 78, '4f581a397dce69c2b97fd5f17ae4177aed36c9a1754f988b9bb7afdadee7410f'), (2, 2, '184cc37d151e8ec7e2e71634bb0bf7b1bdde65ccf908d86ed8358073f1d1879f')),
    ('1+x1x2/2+x1^2x2^2/10', (78, 78, '72208c143f941882fc06c5322eb219019c69ebc7d5f5bd4e1dadd8697ffd23ad'), (2, 2, '8b0633b4e27be452a4d335de5fdc6bbbad21f74d6471ea24b37bfbfcc3f0e3dc')),
    ('2+(x1-x2)^2/4', (118, 110, '1230a72962094654dfe52258042a6cc93d69dc5d0b4a8815b7bc4d200f26e06d'), (2, 2, '2d5e8d9bb079971c43d7086094c43fead895db13a109b863c5ff3164b7a9943a')),
    ('2+(x1-x2/2)^2/4', (100, 94, 'bb7d100f6733ae67362981ffc15bade95393b95c1472fff0cb031e7ffb73c607'), (2, 2, 'a61cf6d64792acb432fec342ca0bf49c650918841b79f5c5147cf3ffb612fd07')),
    ('3+(x1/2-x2)^2/8', (86, 86, 'bf5b43b014d8edc885c5b2f3541ad99f650c8fe506bd89673d26331e147737c0'), (2, 2, 'a1ae6c02b91c873f6d1948914b3b55428cf904d0a260a72c1c8171ab1797936b')),
    ('2-x1x2+x2^2', (30, 186, '93d1a29252e4d5de05994200d114120d1a9a03e3ca964f1bd14a043ca7311c96'), (2, 2, '639e91a2f1870524ba182da12cbae22aa0b4fbd97306a7cd4d7757ed070168f7')),
    ('h3(x1)/2+x2/8', (110, 16, '962b6cf63860efe93f2011c3be90cc29a192bf90f73b004cf0ef6a3a030d205d'), (3, 2, '0c2bd3eb3513dbca16f8fc7073fcaa70a3e5ad1796d906c669a12c4b5fe49bf0')),
    ('h3(x2)/2+x1/8', (38, 106, 'c3790101ff145547edaed9a0a6b751552d16340e2d306a0f791976962dde8038'), (2, 3, '018b94c8dae9c1a9894ed0c23b6e09c89d37e5b60382de47cf9d7247576d2d9a')),
    ('1+x1^3x2/8', (308, 16, 'b4756e780dac90e164ac95f86ce4011d84b45d70b3d8c8f5476ebd037b2cc7ff'), (3, 2, '325db209bd6d8c48630100b703469b9782ebd04a0f543639019934422ab4a058')),
    ('h4(x1)/2', (232, 2, '0ead7027ee3343dbe32e78bed3f4c23724e76ca7bcf29d3cff751177f059997a'), (4, 2, '7874fa0db8a8845c94cff94e4cc1bbd7688014b2206db359a18ccb6b333acdae')),
    ('h4(x2)/2', (2, 232, 'ec5e68b45ca77f8c7ca310e23e151e758928ce17b9f056d746e140ad553674bd'), (2, 4, '8596e7a035ea08087d0c736729eda00aa72599f71ef2a108716dd276e31156c3')),
    ('h4(x1)/2+x2/5', (314, 16, '204fd088d4c2979002f2c9e8066af2b0f871fb65df793b8aeedf87c80ec50888'), (4, 2, '0926fa15156f07eae5fcc4950be849da68198e94a608eaa7915b3f071f316d19')),
]

CERTIFIERS = {"nested": certify_nested, "raise": certify_raise}


def _digest(cert) -> str:
    text = serialize_certificate_document(CertificateDocument.from_certificate(cert))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_corpus():
    assert [name for name, *_ in GOLDEN] == [name for name, _ in BIVARIATE_CORPUS]


@pytest.mark.parametrize("method", ["nested", "raise"])
def test_certificate_documents_unchanged(method):
    expected = {name: dict(zip(("nested", "raise"), pins)) for name, *pins in GOLDEN}
    for name, p in BIVARIATE_CORPUS:
        cert = CERTIFIERS[method](p)
        assert (cert.q1, cert.q2, _digest(cert)) == expected[name][method], name
