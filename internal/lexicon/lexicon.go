// Package lexicon embeds the Chinese word lists every other part of the
// reproduction draws from: surname and given-name characters for person
// name generation and NER, region and modifier vocabulary for brackets,
// job titles, organization/place suffixes, the 184-entry thematic
// (non-taxonomic) word lexicon used by the syntax-rule verifier (after
// Li et al., APWeb 2015), and the concept ontology with English glosses
// that powers both the synthetic encyclopedia and the Probase-Tran
// translation baseline.
//
// All exported accessors return fresh copies; the embedded data is
// immutable.
package lexicon

// copyOf returns a defensive copy of the given word list.
func copyOf(xs []string) []string {
	out := make([]string, len(xs))
	copy(out, xs)
	return out
}

var surnames = []string{
	"王", "李", "张", "刘", "陈", "杨", "黄", "赵", "吴", "周",
	"徐", "孙", "马", "朱", "胡", "郭", "何", "林", "罗", "高",
	"郑", "梁", "谢", "宋", "唐", "许", "韩", "冯", "邓", "曹",
	"彭", "曾", "肖", "田", "董", "袁", "潘", "蒋", "蔡", "余",
	"杜", "叶", "程", "苏", "魏", "吕", "丁", "任", "沈", "姚",
	"卢", "姜", "崔", "钟", "谭", "陆", "汪", "范", "金", "石",
	"廖", "贾", "夏", "韦", "付", "方", "白", "邹", "孟", "熊",
	"秦", "邱", "江", "尹", "薛", "闫", "段", "雷", "侯", "龙",
	"史", "陶", "黎", "贺", "顾", "毛", "郝", "龚", "邵", "万",
	"钱", "严", "覃", "武", "戴", "莫", "孔", "向", "汤", "欧阳",
}

// Surnames returns the embedded Chinese surname list (single- and
// double-character family names).
func Surnames() []string { return copyOf(surnames) }

var givenChars = []string{
	"伟", "芳", "娜", "敏", "静", "丽", "强", "磊", "军", "洋",
	"勇", "艳", "杰", "娟", "涛", "明", "超", "秀", "霞", "平",
	"刚", "英", "华", "玉", "红", "玲", "丹", "峰", "龙",
	"雪", "琳", "晨", "宇", "浩", "轩", "欣", "怡", "佳",
	"俊", "鹏", "飞", "波", "斌", "桂", "婷", "云",
	"健", "倩", "悦", "然", "博", "文", "天", "一",
}

// GivenChars returns characters commonly used in Chinese given names.
func GivenChars() []string { return copyOf(givenChars) }

var regions = []string{
	"中国", "美国", "日本", "英国", "法国", "德国", "韩国", "俄罗斯",
	"意大利", "加拿大", "澳大利亚", "印度", "巴西", "西班牙",
	"中国香港", "中国台湾", "中国澳门",
	"北京", "上海", "广州", "深圳", "杭州", "南京", "成都", "武汉",
	"西安", "重庆", "天津", "苏州", "长沙", "青岛", "厦门", "福州",
	"江苏", "浙江", "广东", "山东", "四川", "湖南", "湖北", "福建",
	"河南", "河北", "陕西", "辽宁", "安徽", "江西", "云南", "贵州",
}

// Regions returns country/province/city words that act as bracket
// modifiers, birthplaces and named-entity noise in tags.
func Regions() []string { return copyOf(regions) }

var modifiers = []string{
	"著名", "知名", "男", "女", "青年", "当代", "现代", "古代",
	"资深", "新生代", "国际", "民间", "优秀", "杰出", "原创",
	"独立", "自由", "专业", "业余", "一线",
}

// Modifiers returns adjective-like words that precede concepts inside
// disambiguation brackets (e.g. 著名男演员).
func Modifiers() []string { return copyOf(modifiers) }

var jobTitles = []string{
	"首席执行官", "首席战略官", "首席技术官", "首席财务官", "首席运营官",
	"总经理", "副总经理", "董事长", "副董事长", "总裁", "副总裁",
	"创始人", "联合创始人", "合伙人", "总监", "部门经理",
	"教授", "副教授", "讲师", "研究员", "副研究员", "院士",
	"主任医师", "主治医师", "总编辑", "主编", "制片人", "总设计师",
}

// JobTitles returns compound job titles that serve as bracket hypernyms
// (e.g. 蚂蚁金服首席战略官 → 首席战略官).
func JobTitles() []string { return copyOf(jobTitles) }

// titleComponents are the pieces compound titles are built from. They —
// not the full titles — go into the segmenter dictionary, so that
// 首席战略官 segments as 首席|战略官 and the PMI separation algorithm has
// real merging work to do (paper, Figure 3).
var titleComponents = []string{
	"首席", "战略官", "执行官", "技术官", "财务官", "运营官",
	"总经理", "副总经理", "董事长", "副董事长", "总裁", "副总裁",
	"创始人", "联合", "合伙人", "总监", "部门", "经理",
	"教授", "副教授", "讲师", "研究员", "院士", "主任", "医师",
	"总编辑", "主编", "制片人", "设计师",
}

// orgIndustry are industry words that compose with OrgStems into company
// names such as 蚂蚁金服 (ANT FINANCIAL in the paper's running example).
var orgIndustry = []string{"金服", "科技", "网络", "传媒", "资本", "控股", "证券", "软件"}

// OrgIndustry returns industry words used in synthetic company names.
func OrgIndustry() []string { return copyOf(orgIndustry) }

var placeSuffixes = []string{"市", "县", "省", "镇", "村", "山", "河", "湖", "岛", "区", "州", "城", "港", "湾"}

// PlaceSuffixes returns single-rune suffixes that signal place names.
func PlaceSuffixes() []string { return copyOf(placeSuffixes) }

var orgSuffixes = []string{
	"大学", "学院", "公司", "集团", "银行", "医院", "中学", "小学",
	"研究所", "研究院", "乐队", "俱乐部", "出版社", "电视台", "报社",
	"协会", "基金会", "事务所",
}

// OrgSuffixes returns multi-rune suffixes that signal organization names.
func OrgSuffixes() []string { return copyOf(orgSuffixes) }

var placeStems = []string{
	"安宁", "清河", "临江", "长乐", "永兴", "武陵", "广陵", "河阳",
	"洛川", "江宁", "海陵", "云梦", "龙泉", "凤台", "金沙", "玉门",
	"青田", "白水", "新野", "东阿", "西陵", "南浔", "北固", "中宁",
	"平遥", "兴化", "宁远", "景德", "梅溪", "桃源", "松江", "竹山",
}

// PlaceStems returns two-character stems composed with PlaceSuffixes to
// mint synthetic place names (e.g. 清河 + 市 → 清河市).
func PlaceStems() []string { return copyOf(placeStems) }

var orgStems = []string{
	"华创", "腾达", "百汇", "阿曼", "联宇", "中科", "天睿", "金辉",
	"银杉", "信诚", "创远", "达邦", "科蓝", "瑞丰", "宏图", "泰和",
	"盛世", "隆基", "蚂蚁", "星河", "云帆", "博雅", "启明", "远大",
}

// OrgStems returns stems composed with OrgSuffixes to mint synthetic
// organization names (e.g. 蚂蚁 + 金服).
func OrgStems() []string { return copyOf(orgStems) }

var workChars = []string{
	"春", "秋", "月", "风", "花", "雪", "夜", "山", "海", "江",
	"湖", "天", "地", "星", "光", "影", "梦", "情", "心", "缘",
	"恋", "城", "歌", "泪", "雨", "虹", "桥", "路", "灯", "船",
}

// WorkChars returns characters used to mint titles of creative works.
func WorkChars() []string { return copyOf(workChars) }

// functionWords is the grammatical/function vocabulary of the abstract
// templates; the segmenter needs it in its dictionary so that content
// words are cut cleanly.
var functionWords = []string{
	"年", "月", "日", "出生", "出生于", "位于", "成立", "成立于",
	"毕业于", "是", "一家", "一部", "一名", "一位", "一座", "的",
	"有", "和", "与", "在", "于", "由", "为", "等", "其", "该",
	"执导", "演唱", "创作", "主演", "出演", "发行", "上映", "出版",
	"代表作品", "主要作品", "获得", "凭借", "担任", "曾任", "现任",
	"毕业", "就读", "任教", "享有", "被誉为", "之一", "先后",
}

// thematicWords is the 184-entry non-taxonomic lexicon used by syntax
// rule (1): a good hypernym is never a thematic word. Mirrors the
// lexicon the paper borrows from Li et al. (2015).
var thematicWords = []string{
	"政治", "军事", "经济", "文化", "艺术", "体育", "娱乐", "科技",
	"教育", "历史", "地理", "音乐", "美术", "舞蹈", "戏剧", "文学",
	"哲学", "宗教", "法律", "医学", "农业", "工业", "商业", "贸易",
	"金融", "财经", "交通", "旅游", "美食", "时尚", "健康", "养生",
	"环保", "能源", "航天", "航空", "外交", "民生", "社会", "民俗",
	"语言", "数学", "物理", "化学", "生物学", "天文", "气象", "地质",
	"海洋", "生态", "心理", "伦理", "逻辑", "美学", "考古", "人文",
	"科普", "国学", "武术", "棋牌", "摄影", "书法", "曲艺", "杂技",
	"动漫", "游戏产业", "影视", "传媒", "出版", "广告", "公关", "营销",
	"管理", "人力资源", "会计", "审计", "统计", "税务", "保险", "证券",
	"基金", "期货", "外汇", "地产", "建筑业", "制造", "物流", "电商",
	"互联网", "通信", "软件业", "硬件", "人工智能", "大数据", "云计算", "区块链",
	"网络安全", "生物技术", "医药", "化工", "冶金", "纺织", "食品业", "饮食",
	"服饰", "家居", "园艺", "宠物", "母婴", "婚庆", "殡葬", "公益",
	"慈善", "志愿服务", "社区", "乡村", "城市化", "人口", "民族", "宗族",
	"礼仪", "节庆", "民间文学", "神话", "传说", "典故", "成语", "诗词",
	"散文", "小说创作", "评论", "翻译", "修辞", "语法", "词汇", "音韵",
	"方言", "文字", "书画", "收藏", "文物", "遗产", "博览", "展览",
	"竞技", "健身", "户外", "探险", "垂钓", "狩猎", "骑行", "登山",
	"滑雪", "游泳运动", "球类", "田径运动", "水上运动", "冰雪运动", "极限运动", "电竞",
	"养殖", "种植", "林业", "渔业", "牧业", "水利", "气候", "灾害",
	"天气", "环境", "污染", "资源", "矿产", "石油", "电力", "新能源",
	"核能", "风能", "太阳能", "交通运输", "铁路", "公路", "航运", "民航",
}

// ThematicWords returns the 184-entry non-taxonomic thematic lexicon.
func ThematicWords() []string { return copyOf(thematicWords) }

var thematicSet = func() map[string]bool {
	m := make(map[string]bool, len(thematicWords))
	for _, w := range thematicWords {
		m[w] = true
	}
	return m
}()

// IsThematic reports whether w is in the thematic lexicon.
func IsThematic(w string) bool { return thematicSet[w] }

// ThematicCount returns the size of the thematic lexicon (184 in the
// paper; kept as an exported constant check for tests).
func ThematicCount() int { return len(thematicWords) }

var pinyinSyllables = []string{
	"an", "bao", "bin", "bo", "chen", "cheng", "chun", "da", "dong", "fan",
	"fei", "feng", "gang", "guo", "hai", "hao", "hong", "hua", "hui", "jia",
	"jian", "jie", "jin", "jing", "jun", "kai", "kang", "lan", "lei", "li",
	"liang", "lin", "ling", "long", "mei", "ming", "na", "ning", "peng", "ping",
	"qian", "qiang", "qing", "ran", "rong", "rui", "shan", "sheng", "shu", "song",
	"tao", "ting", "wei", "wen", "xia", "xiang", "xin", "xing", "xiu", "xue",
	"yan", "yang", "yi", "ying", "yong", "yu", "yuan", "yun", "ze", "zhen",
	"zheng", "zhi", "zhong", "zhou", "zhu",
}

// PinyinSyllables returns romanization syllables used to mint English
// labels for synthetic entities (consumed by the Probase-Tran baseline).
func PinyinSyllables() []string { return copyOf(pinyinSyllables) }
